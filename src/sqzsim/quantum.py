"""Duan criterion and uncertainty relation of the +-45 degree superposition modes.

The signal/idler pair of the OPO is a two-mode squeezed state with added
loss. In the superposition modes a_pm = (a1 +- a2)/sqrt(2) its covariance,
in the quadrature ordering (x+, p+, x-, p-) and in shot-noise units
(vacuum = 1.0), is diagonal: diag(S+, S-, S-, S+), with S- the squeezed and
S+ the anti-squeezed variance. So every question asked of the state reduces
to scalar arithmetic on the pair (S-, S+):

* entanglement, by the Duan criterion on the two squeezed quadratures;
* physicality, by the uncertainty relation of each mode.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ModeVariancePair", "duan_inseparability", "obeys_uncertainty"]

# a lossless state has S- S+ = 1 exactly; its computed product has been
# measured no further than 1.5 eps below 1 over sigma up to 1 - 1e-12, so
# this is a margin for rounding, not a tunable tolerance
_UNCERTAINTY_SLACK = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class ModeVariancePair:
    """Squeezed-quadrature variances of the two superposition modes.

    `s_plus` is the variance of p+ and `s_minus` the variance of x-, both in
    shot-noise units (1.0 = vacuum). Scalars or equal-shape arrays.
    """

    s_plus: float | np.ndarray
    s_minus: float | np.ndarray

    def __post_init__(self):
        for name in ("s_plus", "s_minus"):
            v = np.asarray(getattr(self, name), dtype=float)
            if np.any(v <= 0) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite and strictly positive")


def duan_inseparability(pair: ModeVariancePair) -> float | np.ndarray:
    """Half-sum of the superposition-mode squeezed variances.

    A value below 1.0 certifies signal/idler entanglement; vacuum sits
    exactly on the boundary.
    """
    s_plus = np.asarray(pair.s_plus, dtype=float)
    s_minus = np.asarray(pair.s_minus, dtype=float)
    out = 0.5 * (s_plus + s_minus)
    return float(out) if out.ndim == 0 else out


def obeys_uncertainty(s_squeezed: float, s_antisqueezed: float) -> bool:
    """Whether the state with these two variances is physical.

    The state must satisfy V + i Omega >= 0 (Simon, PRL 84, 2726 (2000)).
    The 50/50 superposition is orthogonal and symplectic, so it may be
    checked on the rotated covariance diag(S+, S-, S-, S+), where it splits
    into one 2x2 block diag(S-, S+) + i J per mode. Each block is positive
    semidefinite exactly when S- > 0 and S- S+ >= 1, which this tests up to
    the rounding of the product.
    """
    return bool(
        s_squeezed > 0 and s_squeezed * s_antisqueezed >= 1.0 - _UNCERTAINTY_SLACK
    )
