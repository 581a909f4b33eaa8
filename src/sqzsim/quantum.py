"""Duan criterion and uncertainty relation of the +-45 degree superposition modes.

The signal/idler pair of the OPO is a two-mode squeezed state with added
loss. In the superposition modes a_pm = (a1 +- a2)/sqrt(2) its covariance,
in the quadrature ordering (x+, p+, x-, p-) and in shot-noise units
(vacuum = 1.0), is diagonal: diag(A+, S+, S-, A-). Each mode has a squeezed
variance S (p+ and x-) and an anti-squeezed one A (x+ and p-); `s_plus` and
`s_minus` below are the two modes' squeezed variances S+ and S-. So every
question asked of the state reduces to scalar arithmetic on these variances:

* entanglement, by the Duan criterion on the two squeezed quadratures;
* physicality, by the uncertainty relation of each mode.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["duan_inseparability", "obeys_uncertainty"]

# a lossless state has S A = 1 exactly; its computed product has been
# measured no further than 1.5 eps below 1 over sigma up to 1 - 1e-12, so
# this is a margin for rounding, not a tunable tolerance
_UNCERTAINTY_SLACK = 4 * np.finfo(float).eps


def duan_inseparability(s_plus, s_minus) -> float | np.ndarray:
    """Half-sum of the superposition modes' squeezed variances S+ (of p+)
    and S- (of x-), scalars or equal-shape arrays in shot-noise units.

    A value below 1.0 certifies signal/idler entanglement; vacuum sits
    exactly on the boundary. Variances that are not finite and strictly
    positive are refused.
    """
    s_plus = np.asarray(s_plus, dtype=float)
    s_minus = np.asarray(s_minus, dtype=float)
    for name, v in (("s_plus", s_plus), ("s_minus", s_minus)):
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite and strictly positive")
    out = 0.5 * (s_plus + s_minus)
    return float(out) if out.ndim == 0 else out


def obeys_uncertainty(s_squeezed: float, s_antisqueezed: float) -> bool:
    """Whether the mode with these two variances, S and A, is physical.

    The state must satisfy V + i Omega >= 0 (Simon, PRL 84, 2726 (2000)).
    The 50/50 superposition is orthogonal and symplectic, so it may be
    checked on the rotated covariance diag(A+, S+, S-, A-), where it splits
    into one 2x2 block diag(S, A) + i J per mode. Each block is positive
    semidefinite exactly when S > 0 and S A >= 1, which this tests up to
    the rounding of the product.
    """
    return bool(
        s_squeezed > 0 and s_squeezed * s_antisqueezed >= 1.0 - _UNCERTAINTY_SLACK
    )
