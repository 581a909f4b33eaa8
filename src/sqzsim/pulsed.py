"""Noise variance of a finite-window measurement and its improvement factor.

Integrating a photocurrent over a rectangular window of duration T filters
the source noise spectrum S with a sinc^2 kernel:

    sigma^2 = integral_0^inf S(nu) T^2 sinc^2(pi nu T) dnu

For a flat spectrum S = c the integral is c T / 2, so the improvement factor
of a source over a shot-limited one is (T/2) / sigma^2.

The integrand oscillates with period 1/T, which stalls generic adaptive
quadrature; instead the integration is split at the sinc zeros nu = k/T
(and at any spectrum breakpoints), each piece handled by Gauss-Legendre
panels with per-interval error control, and the tail beyond the last lobe
is added analytically through the sine integral assuming the spectrum has
flattened out there. The residual of that assumption is envelope-bounded
and included in the reported error estimate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

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

_N_LOBES = 10_000
_REL_TOL = 1e-6
_MAX_REFINEMENTS = 4000


@dataclass(frozen=True)
class PulsedWindow:
    """Rectangular integration window of the given duration in seconds."""

    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("window duration must be positive")


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
        if bp[0] <= 0 or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be positive and strictly ascending")
        if any(v <= 0 for v in vals) or not self.tail_value > 0:
            raise ValueError("segment values must be strictly positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail_value", float(self.tail_value))

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        table = np.asarray(self.values + (self.tail_value,))
        out = table[np.searchsorted(self.breakpoints, f, side="right")]
        return float(out) if out.ndim == 0 else out


def flat_window_variance(level: float, window: PulsedWindow) -> float:
    """Closed form c T / 2 for a flat spectrum of the given level."""
    return float(level) * window.duration / 2.0


def _integrand(spectrum, t_window):
    def g(nu):
        with np.errstate(over="ignore"):
            s = np.asarray(spectrum(nu), dtype=float)
        if np.any(~np.isfinite(s)):
            raise ValueError(
                "spectrum is unbounded on the integration range; if it diverges "
                "at low frequency, clamp it (e.g. clamp_to_shot_below) to model "
                "a feedback-stabilized source"
            )
        if np.any(s < 0):
            raise ValueError("spectrum is negative on the integration range")
        return s * t_window**2 * np.sinc(nu * t_window) ** 2

    return g


def _gl_panel(g, a, b, rule):
    nodes, weights = rule
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(weights * g(x)))


def _gl_panels(g, edges, rule):
    nodes, weights = rule
    a = edges[:-1]
    widths = np.diff(edges)
    x = a[:, None] + 0.5 * widths[:, None] * (nodes[None, :] + 1.0)
    vals = g(x.ravel()).reshape(x.shape)
    return 0.5 * widths * (vals * weights[None, :]).sum(axis=1)


def pulsed_variance_with_error(spectrum, window: PulsedWindow) -> tuple[float, float]:
    """Window-filtered noise variance plus a conservative error estimate."""
    t = window.duration
    cutoff = _N_LOBES / t
    g = _integrand(spectrum, t)

    edges = np.arange(_N_LOBES + 1, dtype=float) / t
    breakpoints = np.asarray(getattr(spectrum, "breakpoints", ()), dtype=float)
    inside = breakpoints[(breakpoints > 0) & (breakpoints < cutoff)]
    if inside.size:
        edges = np.unique(np.concatenate([edges, inside]))

    coarse = _gl_panels(g, edges, _GL8)
    fine = _gl_panels(g, edges, _GL16)

    # tail beyond the last lobe: S approximately constant there, so use the
    # exact remainder of the sinc^2 integral via the sine integral
    s_tail = float(spectrum(cutoff))
    remainder = (t / np.pi) * (np.pi / 2.0 - sici(2.0 * np.pi * _N_LOBES)[0])
    tail = s_tail * remainder
    s_far = float(spectrum(1e3 * cutoff))
    tail_err = (abs(s_tail - s_far) + 1e-12 * s_tail) * t / (np.pi**2 * _N_LOBES)

    # max-heap of panels keyed by error estimate; running sums drive the
    # convergence test, the reproducible ordered sum happens at the end
    heap = [
        (-abs(f - c), a, b, f)
        for a, b, c, f in zip(edges[:-1], edges[1:], coarse, fine)
    ]
    heapq.heapify(heap)
    value_sum = float(np.sum(fine)) + tail
    err_sum = float(np.sum(np.abs(fine - coarse))) + tail_err

    refinements = 0
    while err_sum > _REL_TOL * abs(value_sum) and abs(value_sum) != 0.0:
        if refinements >= _MAX_REFINEMENTS:
            raise RuntimeError(
                "window-variance quadrature did not reach the requested tolerance; "
                "the spectrum likely diverges at low frequency (clamp it, e.g. with "
                "clamp_to_shot_below, to model a feedback-stabilized source)"
            )
        refinements += 1
        neg_err, a, b, f_old = heapq.heappop(heap)
        value_sum -= f_old
        err_sum += neg_err
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            f16 = _gl_panel(g, lo, hi, _GL16)
            f8 = _gl_panel(g, lo, hi, _GL8)
            heapq.heappush(heap, (-abs(f16 - f8), lo, hi, f16))
            value_sum += f16
            err_sum += abs(f16 - f8)

    # ascending-frequency pairwise summation keeps reruns bit-identical
    panels = sorted((a, f) for _, a, _b, f in heap)
    value = float(np.sum(np.array([f for _, f in panels]))) + tail
    err = float(np.sum(np.array([-e for e, *_ in heap]))) + tail_err
    return value, err


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
