"""Time-series synthesis, Welch estimation and swept-analyzer emulation.

Conventions, fixed so golden outputs stay stable:

* One-sided PSDs everywhere; for a series of variance V the PSD integrates
  to V over [0, fs/2]. Unit-variance white noise is flat at 2/fs.
* A shot-normalized spectrum value of 1.0 synthesizes to samples of unit
  variance (SHOT_NOISE_VARIANCE below).
* Synthesis holds one record-sized array, the Fourier bins, before the
  inverse transform. The spectrum is evaluated a block of frequencies at a
  time on the calling thread, and the amplitudes are parked in the bins'
  imaginary slots, while one helper thread draws the real parts. The draw
  order and the operations on each bin are those of the whole-array form,
  so records are byte-identical to it.
* Welch: periodic Hann window, 50% overlap, no detrending, computed in
  numpy (no scipy import) over a read-only strided view of the segments.
* Analyzer emulation: Gaussian resolution-bandwidth kernel (FWHM = rbw),
  video bandwidth modeled as post-detection power averaging over
  n_avg = max(1, round(rbw / (2 vbw))) looks (RMS detector).

Every stochastic routine takes an explicit integer seed and is reproducible
bit for bit from (inputs, seed).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, TabulatedSpectrum

__all__ = [
    "SHOT_NOISE_VARIANCE",
    "TimeSeries",
    "Trace",
    "SweepConfig",
    "synthesize",
    "welch_psd",
    "rbw_convolve",
    "emulate_sweep",
    "normalize_to_shot",
]

# sample variance produced by a flat spectrum of value 1.0
SHOT_NOISE_VARIANCE = 1.0

# fixed kernel discretization for the RBW convolution: +-4 sigma, 257 points
_KERNEL_HALF_WIDTH_SIGMAS = 4.0
_KERNEL_POINTS = 257

# synthesis evaluates the spectrum and fills the Fourier bins this many
# frequencies at a time, so each block's temporaries stay in cache
_SYNTH_BLOCK = 1 << 14

# Welch segments are transformed a block at a time, about this many samples
# per block, so the temporaries stay a few MB whatever the record length
_WELCH_BLOCK_SAMPLES = 1 << 16

# FWHM of a Gaussian in units of its sigma
_FWHM = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class TimeSeries:
    """Sampled photocurrent record in shot-noise-normalized units."""

    sample_rate: float
    samples: np.ndarray
    seed: int

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class Trace:
    """Analyzer-style trace: dB values on an ascending frequency grid."""

    freqs: np.ndarray
    values_db: np.ndarray
    rbw: float
    vbw: float

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        values = np.asarray(self.values_db, dtype=np.float64)
        if freqs.ndim != 1 or freqs.shape != values.shape:
            raise ValueError("freqs and values_db must be 1-d arrays of equal length")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly ascending")
        if not (self.rbw >= self.vbw > 0):
            raise ValueError("need rbw >= vbw > 0")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values_db", values)


@dataclass(frozen=True)
class SweepConfig:
    """Swept-measurement settings; defaults match the broadband trace
    (300 kHz to 10 MHz at RBW 100 kHz / VBW 300 Hz)."""

    start: float = 300e3
    stop: float = 10e6
    n_points: int = 512
    rbw: float = 100e3
    vbw: float = 300.0

    def __post_init__(self):
        if not 0 < self.start < self.stop < np.inf:
            raise ValueError("need 0 < start < stop, both finite")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if not (np.inf > self.rbw >= self.vbw > 0):
            raise ValueError("need rbw >= vbw > 0, both finite")

    @property
    def freqs(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


def synthesize(spectrum, sample_rate: float, n_samples: int, seed: int) -> TimeSeries:
    """Stationary Gaussian series with a prescribed one-sided spectrum.

    Independent complex Gaussian Fourier bins are scaled by the square root
    of the target spectrum, Hermitian-symmetrized and inverse-transformed.
    The DC bin carries no power (the series is mean-free), so the spectrum
    is never evaluated at f = 0. A flat spectrum of value 1.0 yields sample
    variance SHOT_NOISE_VARIANCE.

    The bins are the only record-sized array before the transform. The
    spectrum is evaluated on this thread, _SYNTH_BLOCK frequencies at a
    time, and the amplitudes sqrt(n S(f)) are parked in the imaginary
    slots; meanwhile one helper thread draws the real parts. After the join
    each block is finished in cache: the real part is multiplied by the
    amplitude and then by 1/sqrt(2), and the imaginary normals, drawn next,
    the same way, over the amplitude; the Nyquist bin comes last. The
    stream order (real parts, imaginary parts, Nyquist), the frequencies
    (np.fft.rfftfreq's, bit for bit) and the operations on each element are
    those of ``amps * (re + 1j*im) / sqrt(2)``, as numpy divides a complex
    array by a real scalar by multiplying with its reciprocal, so records
    keep their bytes.
    """
    if not sample_rate > 0:
        raise ValueError("sample_rate must be positive")
    n_samples = int(n_samples)
    if n_samples < 2 or n_samples & (n_samples - 1):
        raise ValueError(f"n_samples must be a power of two >= 2, got {n_samples}")

    samples = np.fft.irfft(_fourier_bins(spectrum, sample_rate, n_samples, seed), n_samples)
    return TimeSeries(sample_rate=sample_rate, samples=samples, seed=int(seed))


def _fourier_bins(spectrum, sample_rate: float, n_samples: int, seed: int) -> np.ndarray:
    """The scaled Fourier bins of synthesize; the block temporaries and the
    helper thread are gone when this returns, before the transform."""
    half = n_samples // 2
    rng = np.random.default_rng(seed)
    bins = np.empty(half + 1, dtype=complex)
    bins[0] = 0.0
    re, amps = bins.real[1:-1], bins.imag[1:]
    block = np.empty(min(_SYNTH_BLOCK, re.size))
    failed = []

    def draw_real_parts():
        # touches only the generator and bins.real
        try:
            for a in range(0, re.size, _SYNTH_BLOCK):
                z = block[: min(_SYNTH_BLOCK, re.size - a)]
                rng.standard_normal(out=z)
                re[a:a + z.size] = z
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    helper = threading.Thread(target=draw_real_parts, name="synthesize-real-parts")
    helper.start()
    try:
        df = 1.0 / (n_samples * (1.0 / sample_rate))  # as np.fft.rfftfreq has it
        f_bad = None
        for a in range(0, half, _SYNTH_BLOCK):
            freqs = np.arange(a + 1, min(a + _SYNTH_BLOCK, half) + 1) * df
            target = np.asarray(spectrum(freqs), dtype=float)
            if not np.isfinite(target).all():
                raise ValueError("spectrum must be finite on (0, sample_rate/2]")
            if f_bad is None:
                negative = target < 0
                if negative.any():
                    f_bad = float(freqs[negative][0])
                    continue
                # written out of place: the spectrum's own result may be
                # read-only or shared
                amp = amps[a:a + freqs.size]
                np.multiply(n_samples, target, out=amp)
                np.sqrt(amp, out=amp)
    finally:
        helper.join()
    if f_bad is not None:
        raise ValueError(f"spectrum is negative at {f_bad:.6g} Hz")
    if failed:
        raise failed[0]

    scale = 1.0 / np.sqrt(2.0)
    for a in range(0, re.size, _SYNTH_BLOCK):
        part = re[a:a + _SYNTH_BLOCK]
        amp = amps[a:a + part.size]
        part *= amp
        part *= scale
        z = block[: amp.size]
        rng.standard_normal(out=z)
        z *= amp
        z *= scale
        amp[...] = z
    bins[-1] = amps[-1] * rng.standard_normal()
    return bins


def _welch_nperseg(sample_rate: float, rbw: float) -> int:
    """Smallest power of two whose bin spacing is at most rbw / 2."""
    return 1 << int(np.ceil(np.log2(2.0 * sample_rate / rbw)))


def welch_psd(ts: TimeSeries, rbw: float) -> TabulatedSpectrum:
    """Averaged periodogram of a series, tabulated as a one-sided PSD in 1/Hz.

    Segment length is the power of two giving bin spacing <= rbw/2; periodic
    Hann window, 50% overlap, no detrending, density normalization (the PSD
    integrates to the sample variance over [0, fs/2]). Trailing samples that
    do not fill a segment are dropped (Welch, IEEE Trans. Audio Electroacoust.
    15, 1967).
    """
    if not 0 < rbw < 2.0 * ts.sample_rate:
        raise ValueError(
            f"rbw must be positive and below twice the sample rate, got {rbw:.6g} Hz"
        )
    nperseg = _welch_nperseg(ts.sample_rate, rbw)
    n_min = int(np.ceil(1.5 * nperseg))
    if len(ts) < n_min:
        raise ValueError(
            f"record of {len(ts)} samples is too short for rbw={rbw:.6g} Hz: "
            f"need at least {n_min} samples (two 50%-overlapped segments of {nperseg})"
        )
    # nperseg is a power of two >= 2: the hop is half a segment, and the last
    # bin is Nyquist, which like DC has no negative-frequency twin
    segments = np.lib.stride_tricks.sliding_window_view(ts.samples, nperseg)[:: nperseg // 2]
    window = np.hanning(nperseg + 1)[:-1]
    block = max(1, _WELCH_BLOCK_SAMPLES // nperseg)
    power = np.zeros(nperseg // 2 + 1)
    for start in range(0, len(segments), block):
        spec = np.fft.rfft(segments[start:start + block] * window, axis=-1)
        power += (spec.real**2 + spec.imag**2).sum(axis=0)

    psd = power / (ts.sample_rate * np.sum(window**2) * len(segments))
    psd[1:-1] *= 2.0  # one-sided: fold in the negative frequencies
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / ts.sample_rate)
    return TabulatedSpectrum(freqs, psd, label=f"welch rbw={rbw:.6g}")


def rbw_convolve(spectrum, freqs, rbw: float) -> np.ndarray:
    """Convolve a spectrum with the Gaussian resolution kernel (FWHM = rbw).

    The kernel is discretized on a fixed +-4 sigma grid; offsets that fall
    at or below zero frequency are dropped and the weights renormalized.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    sigma = rbw / _FWHM
    offsets = np.linspace(
        -_KERNEL_HALF_WIDTH_SIGMAS * sigma,
        _KERNEL_HALF_WIDTH_SIGMAS * sigma,
        _KERNEL_POINTS,
    )
    weights = np.exp(-0.5 * (offsets / sigma) ** 2)
    grid = freqs[:, None] + offsets[None, :]
    valid = grid > 0.0
    values = np.zeros_like(grid)
    values[valid] = np.asarray(spectrum(grid[valid]), dtype=float)
    w = np.where(valid, weights[None, :], 0.0)
    return (values * w).sum(axis=1) / w.sum(axis=1)


def emulate_sweep(spectrum, cfg: SweepConfig, seed: int) -> Trace:
    """Swept spectrum-analyzer trace of a shot-normalized spectrum, in dB.

    At each grid frequency the RBW-convolved target is jittered with the
    estimator statistics of an RMS detector averaging n_avg looks: a gamma
    draw with mean equal to the target and relative variance 1/n_avg.
    """
    target = rbw_convolve(spectrum, cfg.freqs, cfg.rbw)
    if np.any(target <= 0):
        f_bad = float(cfg.freqs[target <= 0][0])
        raise ValueError(f"convolved spectrum is not positive at {f_bad:.6g} Hz")
    n_avg = max(1, round(cfg.rbw / (2.0 * cfg.vbw)))
    rng = np.random.default_rng(seed)
    drawn = rng.gamma(shape=float(n_avg), scale=target / n_avg)
    return Trace(
        freqs=cfg.freqs,
        values_db=10.0 * np.log10(drawn),
        rbw=cfg.rbw,
        vbw=cfg.vbw,
    )


def normalize_to_shot(trace: Trace, shot: Trace) -> Trace:
    """Pointwise dB subtraction of a shot-reference trace."""
    if trace.freqs.shape != shot.freqs.shape or not np.array_equal(
        trace.freqs, shot.freqs
    ):
        raise ValueError("trace and shot reference have different frequency grids")
    return Trace(
        freqs=trace.freqs,
        values_db=trace.values_db - shot.values_db,
        rbw=trace.rbw,
        vbw=trace.vbw,
    )
