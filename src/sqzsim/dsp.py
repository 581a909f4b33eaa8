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
* synthesize and welch_psd each run one helper thread beside the caller
  and join it before they return. The work is split so that every value
  is made by the same operations in the same order as on one thread:
  the helper alone draws the generator's normals, in stream order, and
  Welch's block sums are added in block order on the caller. Records and
  PSDs are byte-identical to single-threaded ones.
* Analyzer emulation: Gaussian resolution-bandwidth kernel (FWHM = rbw),
  video bandwidth modeled as post-detection power averaging over
  n_avg = max(1, round(rbw / (2 vbw))) looks (RMS detector).

Every stochastic routine takes an explicit integer seed and is reproducible
bit for bit from (inputs, seed).
"""

from __future__ import annotations

import threading
from collections import deque
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
        bad = np.flatnonzero(~np.isfinite(freqs))
        if bad.size:  # a NaN compares false with its neighbours
            more = f" and {bad.size - 1} more" if bad.size > 1 else ""
            raise ValueError(f"freqs must be finite, got {float(freqs[bad[0]])!r} at "
                             f"index {bad[0]}{more}")
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
    the transform, and they are filled _SYNTH_BLOCK at a time. A helper
    thread draws each block's normal pairs straight into its bins; it is
    the only user of the generator, so the stream order is that of one
    thread. Meanwhile the calling thread evaluates and checks the block's
    spectrum and turns it into amplitudes, then scales the block in place
    once its draws are in. The spectrum is only ever called on the calling
    thread, and each bin is the same product as on one thread, so records
    keep their bytes. An error on either thread stops the other before its
    next block and is raised here, in the order one thread would meet it.
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
    """The scaled Fourier bins of synthesize, filled as it describes; the
    block temporaries and the helper thread are gone when this returns,
    before the transform."""
    half = n_samples // 2
    rng = np.random.default_rng(seed)
    bins = np.empty(half + 1, dtype=complex)
    bins[0] = 0.0
    pairs = bins.view(float).reshape(half + 1, 2)  # each bin's (real, imag)
    starts = range(0, half, _SYNTH_BLOCK)

    def draws():
        # touches only the generator and the bins; may run blocks ahead
        for a in starts:
            z = pairs[a + 1:min(a + _SYNTH_BLOCK, half) + 1]
            rng.standard_normal(out=z)
            yield z

    f_bad = None
    with _Helper(draws(), "synthesize-draws") as drawn:
        for a in starts:
            freqs = np.arange(a + 1, min(a + _SYNTH_BLOCK, half) + 1) * df
            target = np.asarray(spectrum(freqs), dtype=float)
            if not np.isfinite(target).all():
                raise ValueError("spectrum must be finite on (0, sample_rate/2]")
            if f_bad is not None:
                continue
            negative = target < 0
            if negative.any():
                f_bad = float(freqs[negative][0])
                drawn.stop()  # no bin is needed now
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
            z = drawn.take()
            z *= amp[:, None]
    if f_bad is not None:
        raise ValueError(f"spectrum is negative at {f_bad:.6g} Hz")
    pairs[-1, 1] = 0.0  # the Nyquist bin is real
    return bins


class _Helper:
    """One helper thread that runs an iterator ahead of the caller, who
    takes its items in order with take(). The helper's exception is raised
    by the take() that would have returned the item it failed on, so the
    caller's own checks of the earlier blocks come first. Leaving the with
    block, or stop(), stops the helper before its next item; the with
    block joins it, so no thread outlives the call."""

    def __init__(self, items, name: str):
        self._items = items
        self._done = deque()  # items, or the exception that ended them
        self._ready = threading.Semaphore(0)
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name)

    def _run(self):
        try:
            for item in self._items:
                self._done.append(item)
                self._ready.release()
                if self._stopped.is_set():
                    return
        except BaseException as exc:  # take() re-raises it; it must not wait in vain
            self._done.append(exc)
            self._ready.release()

    def take(self):
        self._ready.acquire()
        item = self._done.popleft()
        if isinstance(item, BaseException):
            raise item
        return item

    def stop(self):
        self._stopped.set()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        self._thread.join()


def welch_psd(ts: TimeSeries, rbw: float) -> TabulatedSpectrum:
    """Averaged periodogram of a series, tabulated as a one-sided PSD in 1/Hz.

    Segment length is the power of two giving bin spacing <= rbw/2; periodic
    Hann window, 50% overlap, no detrending, density normalization (the PSD
    integrates to the sample variance over [0, fs/2]). Trailing samples that
    do not fill a segment are dropped (Welch, IEEE Trans. Audio Electroacoust.
    15, 1967), but like every other sample they must be finite.

    The segments are transformed in blocks of about _WELCH_BLOCK_SAMPLES
    samples, and each block's |X|^2 is summed over its segments. The
    calling thread takes the even blocks and a helper thread the odd ones,
    each in buffers of its own; the caller adds the block sums into the
    PSD in block order, so the PSD has the bytes of a single-threaded sum.
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
    starts = range(0, len(segments), block)

    # each thread reuses its own two block buffers: the windowed segments,
    # whose space then takes |X|^2, and their transforms. Fresh arrays per
    # block were faulted in anew each time at long segments (16,500 page
    # faults per estimate of 2^22 samples at rbw 3 kHz, against 700)
    bins = nperseg // 2 + 1
    work = np.empty((2, block * nperseg))
    spec = np.empty((2, block, bins), dtype=complex)

    def block_powers(k):
        # |X|^2 summed over the segments of each block k, k + 2, ... A
        # non-finite sample, or a PSD beyond the float range, shows in the
        # result; it is named below rather than warned about here, on
        # either thread
        for start in starts[k::2]:
            m = min(block, len(segments) - start)
            windowed, x = work[k, :m * nperseg].reshape(m, nperseg), spec[k, :m]
            x2 = work[k, :m * bins].reshape(m, bins)
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(segments[start:start + m], window, out=windowed)
                np.fft.rfft(windowed, axis=-1, out=x)
                np.square(x.real, out=x2)
                np.square(x.imag, out=x.imag)
                total = np.add(x2, x.imag, out=x2).sum(axis=0)
            yield total

    power = np.zeros(bins)
    # the helper takes the odd blocks, this thread the even ones, and the
    # block sums are added here in block order
    even = block_powers(0)
    with _Helper(block_powers(1), "welch-odd-blocks") as odd, \
            np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(starts)):
            power += odd.take() if i % 2 else next(even)
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
