"""Noise variance of a finite-window measurement and its improvement factor.

Integrating a photocurrent over a rectangular window of duration T filters
the source noise spectrum S with a sinc^2 kernel:

    sigma^2 = integral_0^inf S(nu) T^2 sinc^2(pi nu T) dnu

For a flat spectrum S = c the integral is c T / 2, so the improvement factor
of a source over a shot-limited one is (T/2) / sigma^2.

The integrand oscillates with period 1/T, which stalls generic adaptive
quadrature, so the half-line is split at x = N/T (N = 1000 lobes). The near
field nu < x gets one panel per sinc lobe [k/T, (k+1)/T], also split at any
spectrum breakpoints. The far field nu > x takes the lobe-averaged kernel
1/(2 pi^2 nu^2) in w = x/nu, where the integrand is S(x/w) / (2 pi^2 x) on
(0, 1] and breakpoints beyond x are panel edges. Gauss-Legendre panels of
both fields (16 nodes, checked against 8) share one table, in which the
worst panel is bisected until the summed estimate meets the relative
tolerance. The returned error adds what the lobe average drops:
S(x) T / (4 pi^4 N^3) for the smooth far field and |dS| / (4 pi^3 T b^2)
per jump dS at a b > x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum

__all__ = [
    "PulsedWindow",
    "PiecewiseSpectrum",
    "pulsed_variance",
    "pulsed_variance_with_error",
    "improvement_factor",
    "flat_window_variance",
    "clamp_to_shot_below",
]

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)

_N_LOBES = 1_000
_REL_TOL = 1e-6
_MAX_REFINEMENTS = 4000


@dataclass(frozen=True)
class PulsedWindow:
    """Rectangular integration window of the given duration in seconds."""

    duration: float

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("window duration must be finite and positive")


@dataclass(frozen=True)
class PiecewiseSpectrum:
    """Piecewise-constant spectrum in linear shot-noise units.

    values[i] applies below breakpoints[i] (the first segment starts at 0);
    tail_value applies from the last breakpoint upward.
    """

    breakpoints: tuple
    values: tuple
    tail_value: float

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) != len(vals):
            raise ValueError("need exactly one value per breakpoint")
        if len(bp) == 0:
            raise ValueError("need at least one breakpoint; use a flat spectrum otherwise")
        if not all(b1 < b2 for b1, b2 in zip((0.0,) + bp, bp + (np.inf,))):
            raise ValueError("breakpoints must be finite, positive and strictly ascending")
        tail = float(self.tail_value)
        if not all(0 < v < np.inf for v in vals + (tail,)):
            raise ValueError("segment values must be finite and strictly positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail_value", tail)

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        table = np.asarray(self.values + (self.tail_value,))
        out = table[np.searchsorted(self.breakpoints, f, side="right")]
        return float(out) if out.ndim == 0 else out


def flat_window_variance(level: float, window: PulsedWindow) -> float:
    """Closed form c T / 2 for a flat spectrum of the given level."""
    return float(level) * window.duration / 2.0


def _checked(spectrum):
    def s(nu):
        with np.errstate(over="ignore"):
            out = np.asarray(spectrum(nu), dtype=float)
        if np.any(~np.isfinite(out)):
            raise ValueError(
                "spectrum is unbounded on the integration range; if it diverges "
                "at low frequency, clamp it (e.g. clamp_to_shot_below) to model "
                "a feedback-stabilized source"
            )
        if np.any(out < 0):
            raise ValueError("spectrum is negative on the integration range")
        return out

    return s


def _gl_panels(g, edges, rule):
    nodes, weights = rule
    a = edges[:-1]
    widths = np.diff(edges)
    x = a[:, None] + 0.5 * widths[:, None] * (nodes[None, :] + 1.0)
    vals = g(x.ravel()).reshape(x.shape)
    return 0.5 * widths * (vals * weights[None, :]).sum(axis=1)


def _distinct_sorted(*arrays) -> np.ndarray:
    """np.unique of the joined arrays, without the numpy.ma import np.unique
    pays on its first call."""
    joined = np.sort(np.concatenate(arrays))
    return joined[np.concatenate(([True], np.diff(joined) > 0))]


def pulsed_variance_with_error(spectrum, window: PulsedWindow) -> tuple[float, float]:
    """Window-filtered noise variance plus a conservative error estimate."""
    t = window.duration
    x = _N_LOBES / t
    s = _checked(spectrum)
    # near field in nu; far field in w = x/nu under the lobe-averaged kernel
    parts = (
        lambda nu: s(nu) * t**2 * np.sinc(nu * t) ** 2,
        lambda w: s(x / w) / (2.0 * np.pi**2 * x),
    )
    bp = np.asarray(getattr(spectrum, "breakpoints", ()), dtype=float)
    far_bp = bp[bp > x]
    edge_sets = (
        _distinct_sorted(np.arange(_N_LOBES + 1) / t, bp[(bp > 0) & (bp < x)]),
        _distinct_sorted(np.linspace(0.0, 1.0, 9), x / far_bp),
    )

    # what the lobe average drops, beyond reach of refinement: the next term
    # of the flat tail's series, and the boundary term of each jump beyond x
    jumps = np.abs(s(far_bp) - s(np.nextafter(far_bp, 0.0)))
    averaging_err = float(
        s(x) * t / (4.0 * np.pi**4 * _N_LOBES**3)
        + np.sum(jumps / (4.0 * np.pi**3 * t * far_bp**2))
    )

    # panel table (side, start, end, GL16 value, |GL16 - GL8| error): a
    # refinement overwrites the panel it bisects with the left half and
    # appends the right half, so the table has room for _MAX_REFINEMENTS more
    cap = sum(edges.size - 1 for edges in edge_sets) + _MAX_REFINEMENTS
    side = np.empty(cap, dtype=np.int8)
    start, end, value, error = (np.empty(cap) for _ in range(4))

    def panels(k, edges):
        fine = _gl_panels(parts[k], edges, _GL16)
        return fine, np.abs(fine - _gl_panels(parts[k], edges, _GL8))

    def store(i, k, edges, fine, err):
        sl = slice(i, i + fine.size)
        side[sl], start[sl], end[sl], value[sl], error[sl] = k, edges[:-1], edges[1:], fine, err

    # running sums, started from the per-side sums, drive the convergence
    # test; the reproducible ordered sum happens at the end
    value_sum = err_sum = 0.0
    n = 0
    for k, edges in enumerate(edge_sets):
        fine, err = panels(k, edges)
        store(n, k, edges, fine, err)
        n += fine.size
        value_sum += float(np.sum(fine))
        err_sum += float(np.sum(err))
    err_sum += averaging_err

    while err_sum > _REL_TOL * abs(value_sum) and abs(value_sum) != 0.0:
        if n == cap:
            raise RuntimeError(
                "window-variance quadrature did not reach the requested tolerance; "
                "the spectrum likely diverges at low frequency (clamp it, e.g. with "
                "clamp_to_shot_below, to model a feedback-stabilized source)"
            )
        # the worst panel: largest error, ties to the lowest start
        tied = np.flatnonzero(error[:n] == error[:n].max())
        w = tied[np.lexsort((side[tied], value[tied], end[tied], start[tied]))[0]]
        a, b, k = start[w], end[w], side[w]
        edges = np.array([a, 0.5 * (a + b), b])
        fine, err = panels(k, edges)
        value_sum += float(np.sum(fine)) - value[w]
        err_sum += float(np.sum(err)) - error[w]
        store(w, k, edges[:2], fine[:1], err[:1])
        store(n, k, edges[1:], fine[1:], err[1:])
        n += 1

    # near field then far field, each by panel start, summed pairwise: reruns
    # stay bit-identical
    order = np.lexsort((start[:n], side[:n]))
    return float(np.sum(value[order])), float(np.sum(error[order])) + averaging_err


def pulsed_variance(spectrum, window: PulsedWindow) -> float:
    """Noise variance of a window-T measurement of the given source."""
    value, _ = pulsed_variance_with_error(spectrum, window)
    return value


def improvement_factor(spectrum, window: PulsedWindow) -> float:
    """Shot-limited window variance divided by the modeled one."""
    value = pulsed_variance(spectrum, window)
    return flat_window_variance(1.0, window) / value


def clamp_to_shot_below(spectrum, knee: float) -> Spectrum:
    """Cap the spectrum at 1.0 below the knee, as a feedback loop would."""
    if not knee > 0:
        raise ValueError("knee frequency must be positive")

    def clamped(f):
        f = np.asarray(f, dtype=float)
        s = np.asarray(spectrum(f), dtype=float)
        return np.where(f < knee, np.minimum(s, 1.0), s)

    return Spectrum(clamped, "feedback-clamped")
