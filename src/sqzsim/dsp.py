"""Time-series synthesis, Welch estimation and swept-analyzer emulation.

Conventions, fixed so golden outputs stay stable:

* One-sided PSDs everywhere; for a series of variance V the PSD integrates
  to V over [0, fs/2]. Unit-variance white noise is flat at 2/fs.
* A shot-normalized spectrum value of 1.0 synthesizes to samples of unit
  variance (SHOT_NOISE_VARIANCE below).
* Synthesis draws one (real, imaginary) pair of standard normals per
  Fourier bin, in frequency order from df to fs/2, from one generator
  seeded with the caller's seed (see synthesize).
* Welch: periodic Hann window, 50% overlap, no detrending, computed in
  numpy (no scipy import) over a read-only strided view of the segments.
* Analyzer emulation: Gaussian resolution-bandwidth kernel (FWHM = rbw),
  video bandwidth modeled as post-detection power averaging over
  n_avg = max(1, round(rbw / (2 vbw))) looks (RMS detector).

Every stochastic routine takes an explicit integer seed and is reproducible
bit for bit from (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import to_db
from .spectra import Spectrum, TabulatedSpectrum, in_domain

__all__ = [
    "SHOT_NOISE_VARIANCE",
    "TimeSeries",
    "Trace",
    "SweepConfig",
    "record_grid",
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
        in_domain("sample_rate", self.sample_rate, "(0, inf]")
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
        for name in ("start", "stop", "rbw", "vbw"):
            in_domain(name, getattr(self, name), "(0, inf)")
        in_domain("n_points", self.n_points, "[2, inf)")
        if not self.start < self.stop:
            raise ValueError(f"start must lie below stop, got {self.start!r} and {self.stop!r}")
        if not self.vbw <= self.rbw:
            raise ValueError(f"vbw must not exceed rbw, got {self.vbw!r} and {self.rbw!r}")

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

    Bin k, at k df with df = fs / n (np.fft.rfftfreq's frequencies, bit
    for bit), is (x_k + i y_k) sqrt(n S(k df) / 2), where (x_k, y_k) is the
    k-th pair of default_rng(seed).standard_normal, k = 1 .. n/2. The
    Nyquist bin k = n/2 is real, x_k sqrt(n S), as it has no twin; its y_k
    is drawn and discarded. The bins are the only record-sized array before
    the transform: the spectrum is evaluated, checked and turned into
    amplitudes _SYNTH_BLOCK frequencies at a time, and each block's normals
    are drawn straight into its bins and scaled there.
    """
    n_samples, df = record_grid(sample_rate, n_samples)
    samples = np.fft.irfft(_fourier_bins(spectrum, df, n_samples, seed), n_samples)
    return TimeSeries(sample_rate=sample_rate, samples=samples, seed=int(seed))


def record_grid(sample_rate: float, n_samples) -> tuple[int, float]:
    """A record's length as an int and its bin spacing, as np.fft.rfftfreq
    has it. A ValueError naming the parameter first unless n_samples is a
    power of two >= 2 by value (1.5 and NaN are not), sample_rate lies in
    (0, inf), and n_samples / sample_rate is finite, so the spacing is > 0."""
    n = int(n_samples) if 2 <= n_samples < np.inf else 0
    if n < 2 or n != n_samples or n & (n - 1):
        raise ValueError(f"n_samples must be a power of two >= 2, got {n_samples:.17g}")
    in_domain("sample_rate", sample_rate, "(0, inf)")
    df = 1.0 / (n * (1.0 / float(sample_rate)))
    if not df > 0:
        raise ValueError(f"sample_rate must give {n} samples a finite duration, "
                         f"got {sample_rate!r}")
    return n, df


def _fourier_bins(spectrum, df: float, n_samples: int, seed: int) -> np.ndarray:
    """The scaled Fourier bins of synthesize, filled _SYNTH_BLOCK bins at a
    time: the block's spectrum, its checks, its amplitudes, its normals and
    its scaling, in one pass; only the bins outlive the loop."""
    half = n_samples // 2
    rng = np.random.default_rng(seed)
    bins = np.empty(half + 1, dtype=complex)
    bins[0] = 0.0
    pairs = bins.view(float).reshape(half + 1, 2)  # each bin's (real, imag)
    f_bad = None
    for a in range(0, half, _SYNTH_BLOCK):
        freqs = np.arange(a + 1, min(a + _SYNTH_BLOCK, half) + 1) * df
        target = np.asarray(spectrum(freqs), dtype=float)
        if not np.isfinite(target).all():
            raise ValueError("spectrum must be finite on (0, sample_rate/2]")
        if f_bad is not None:
            continue
        negative = target < 0
        if negative.any():
            f_bad = float(freqs[negative][0])
            continue
        # out of place: the spectrum's own result may be read-only or shared
        with np.errstate(over="ignore"):
            amp = np.multiply(n_samples, target)
        if amp.max() == np.inf:
            i = int(amp.argmax())
            raise ValueError(
                f"spectrum is {target[i]:.6g} at {freqs[i]:.6g} Hz, too large for "
                f"a record of {n_samples} samples: n S leaves the float range")
        # a bin with a negative-frequency twin splits n S between its two
        # parts; the Nyquist bin, last of the last block, has none
        amp[:half - 1 - a] *= 0.5
        np.sqrt(amp, out=amp)
        z = pairs[a + 1:a + 1 + amp.size]
        rng.standard_normal(out=z)
        z *= amp[:, None]
    if f_bad is not None:
        raise ValueError(f"spectrum is negative at {f_bad:.6g} Hz")
    pairs[-1, 1] = 0.0  # the Nyquist bin is real
    return bins


def welch_psd(ts: TimeSeries, rbw: float) -> TabulatedSpectrum:
    """Averaged periodogram of a series, tabulated as a one-sided PSD in 1/Hz.

    Segment length is the power of two giving bin spacing <= rbw/2; periodic
    Hann window, 50% overlap, no detrending, density normalization (the PSD
    integrates to the sample variance over [0, fs/2]). Trailing samples that
    do not fill a segment are dropped (Welch, IEEE Trans. Audio Electroacoust.
    15, 1967), but like every other sample they must be finite.
    """
    in_domain("rbw", rbw, f"(0, {2.0 * ts.sample_rate!r})")
    # the smallest power of two whose bin spacing is at most rbw / 2; inf
    # where that is beyond the float range, as no record can hold it
    log2 = np.ceil(np.log2(2.0 * ts.sample_rate / rbw))
    nperseg = 1 << int(log2) if log2 < np.finfo(float).maxexp else np.inf
    if len(ts) < 1.5 * nperseg:
        raise ValueError(
            f"record of {len(ts)} samples is too short for rbw={rbw:.6g} Hz: need at least "
            f"{1.5 * nperseg:.15g} samples (two 50%-overlapped segments of {nperseg:.15g})"
        )
    # nperseg is a power of two >= 2: the hop is half a segment, and the last
    # bin is Nyquist, which like DC has no negative-frequency twin
    segments = np.lib.stride_tricks.sliding_window_view(ts.samples, nperseg)[:: nperseg // 2]
    window = np.hanning(nperseg + 1)[:-1]
    block = max(1, _WELCH_BLOCK_SAMPLES // nperseg)
    power = np.zeros(nperseg // 2 + 1)
    # a non-finite sample, or a PSD beyond the float range, shows in the
    # result; it is named below rather than warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(segments), block):
            spec = np.fft.rfft(segments[start:start + block] * window, axis=-1)
            power += (spec.real**2 + spec.imag**2).sum(axis=0)
        psd = power / (ts.sample_rate * np.sum(window**2) * len(segments))
        psd[1:-1] *= 2.0  # one-sided: fold in the negative frequencies
    # the samples after the last full segment, fewer than a hop, are read
    # only here
    tail = ts.samples[(len(segments) - 1) * (nperseg // 2) + nperseg:]
    if not (np.isfinite(psd).all() and np.isfinite(tail).all()):
        bad = np.flatnonzero(~np.isfinite(ts.samples))
        if bad.size:
            raise ValueError(f"record sample {bad[0]} is {float(ts.samples[bad[0]])!r}: "
                             "a PSD needs finite samples")
        raise ValueError(f"the record's PSD leaves the float range at rbw={rbw:.6g} Hz")
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / ts.sample_rate)
    return TabulatedSpectrum(freqs, psd, label=f"welch rbw={rbw:.6g}")


def rbw_convolve(spectrum, freqs, rbw: float) -> np.ndarray:
    """Convolve a spectrum with the Gaussian resolution kernel (FWHM = rbw).

    The kernel is discretized on a fixed +-4 sigma grid; offsets that fall
    at or below zero frequency are dropped and the weights renormalized. A
    sum beyond the float range is inf, without a warning, for the caller to
    refuse.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    sigma = rbw / _FWHM
    if not 2 * _KERNEL_HALF_WIDTH_SIGMAS * float(sigma) < np.inf:
        raise ValueError(f"rbw = {rbw:.6g} Hz is too wide: the RBW kernel's span of "
                         f"{2 * _KERNEL_HALF_WIDTH_SIGMAS:g} sigma overflows")
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
    with np.errstate(over="ignore"):
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
    if not np.isfinite(target).all():
        f_bad = float(cfg.freqs[~np.isfinite(target)][0])
        raise ValueError(f"convolved spectrum is not finite at {f_bad:.6g} Hz")
    looks = cfg.rbw / (2.0 * cfg.vbw)
    if not looks < np.inf:
        raise ValueError(f"vbw = {cfg.vbw:.6g} Hz is too narrow: rbw / (2 vbw) looks overflow")
    n_avg = max(1, round(looks))
    rng = np.random.default_rng(seed)
    drawn = rng.gamma(shape=float(n_avg), scale=target / n_avg)
    return Trace(
        freqs=cfg.freqs,
        values_db=to_db(drawn),
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
