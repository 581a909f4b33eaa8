"""Quantum noise spectra of a below-threshold degenerate parametric oscillator.

Standard linearized intracavity model: with pump amplitude a fraction
sigma < 1 of threshold and cavity half-width f_c, the output superposition
modes carry

    S-(f) = 1 - eta 4 sigma / ((1 + sigma)^2 + (f/f_c)^2)
    S+(f) = 1 + eta 4 sigma / ((1 - sigma)^2 + (f/f_c)^2)

in shot-noise units, where eta is the escape efficiency. Lossless (eta = 1)
the state is minimum-uncertainty: S- S+ = 1 at every frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import elementwise, in_domain

__all__ = [
    "AboveThresholdError",
    "OpoParams",
    "squeezed_variance",
    "antisqueezed_variance",
]


class AboveThresholdError(ValueError):
    """Pump at or above oscillation threshold: the linearized model diverges."""


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold cavity parameters.

    Defaults are fits, not measured values: pump_ratio 0.42 reproduces the
    detected inseparability of 0.33 at 3.5 MHz through the default detection
    chain, and cavity_hwhm 50 MHz is consistent with near-flat squeezing up
    to 10 MHz. escape_efficiency reflects a 5% output coupler with a small
    residual round-trip loss.
    """

    pump_ratio: float = 0.42
    cavity_hwhm: float = 50e6
    escape_efficiency: float = 0.9

    def __post_init__(self):
        if self.pump_ratio >= 1.0:
            raise AboveThresholdError(
                f"pump_ratio must be < 1 below threshold, got {self.pump_ratio}"
            )
        in_domain("pump_ratio", self.pump_ratio, "[0, 1)")
        in_domain("cavity_hwhm", self.cavity_hwhm, "(0, inf]")
        in_domain("escape_efficiency", self.escape_efficiency, "(0, 1]")


# sideband frequencies are clamped to this many cavity half-widths
_X_MAX = 1e150


def _check_freq(f):
    # one pass, with no boolean temporary: fmin skips NaN as f < 0 does, and
    # the initial inf lets empty input pass
    if np.fmin.reduce(f, axis=None, initial=np.inf) < 0:
        raise ValueError("sideband frequency must be >= 0")
    return f


def _lorentzian_terms(params: OpoParams, f):
    # S- = 1 - eta 4 sig / B and S+ = 1 + eta 4 sig / A, written through the
    # shared factors A = (1-sig)^2 + x^2, B = (1+sig)^2 + x^2 (note B - A =
    # 4 sig); the rational form keeps the lossless identity S- S+ = 1 exact
    # to rounding even as sig -> 1. Beyond _X_MAX half-widths (1 +- sig)^2 is
    # far below half an ulp of x^2, so A = B = x^2 and A/B = 1 exactly;
    # clamping f there changes no finite value and keeps x^2 from
    # overflowing to inf/inf = NaN.
    # x^2 is one fresh array, updated in place into B; A is a second one
    f_c = params.cavity_hwhm
    x2 = np.minimum(f, _X_MAX * f_c)
    x2 /= f_c
    x2 **= 2
    sig = params.pump_ratio
    a = (1.0 - sig) ** 2 + x2
    x2 += (1.0 + sig) ** 2
    return a, x2


def _variance(params: OpoParams, ratio):
    """eta ratio + (1 - eta) in place."""
    eta = params.escape_efficiency
    ratio *= eta
    ratio += 1.0 - eta
    return ratio


@elementwise
def squeezed_variance(params: OpoParams, f) -> float | np.ndarray:
    """Variance of the squeezed quadratures (x-, p+) at sideband f in Hz."""
    a, b = _lorentzian_terms(params, _check_freq(f))
    a /= b
    return _variance(params, a)


@elementwise
def antisqueezed_variance(params: OpoParams, f) -> float | np.ndarray:
    """Variance of the anti-squeezed quadratures (x+, p-) at sideband f in Hz."""
    a, b = _lorentzian_terms(params, _check_freq(f))
    b /= a
    return _variance(params, b)

