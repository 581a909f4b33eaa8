"""One-sided noise spectra as evaluable objects.

A spectrum is any callable mapping sideband frequency in Hz (scalar or
ndarray) to linear noise variance. Model spectra throughout the package are
shot-noise normalized: vacuum = 1.0 at every frequency. Tabulated spectra
produced by estimators carry whatever units the table was built in (e.g.
1/Hz for a physical PSD).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Spectrum", "TabulatedSpectrum"]


def _eval_like(fn: Callable, f) -> float | np.ndarray:
    """Evaluate fn on f, returning a float for scalar input."""
    arr = np.asarray(f, dtype=float)
    out = fn(arr)
    return float(out) if arr.ndim == 0 else out


class Spectrum:
    """Wraps a vectorized frequency -> variance function and labels it.

    Measurement-chain maps compose by wrapping one spectrum's call in the
    next, so nothing is tabulated.
    """

    def __init__(self, fn: Callable, label: str = ""):
        self._fn = fn
        self.label = label

    def __call__(self, f):
        return _eval_like(self._fn, f)

    @classmethod
    def flat(cls, value: float, label: str = "") -> "Spectrum":
        value = float(value)
        return cls(lambda f: np.full_like(np.asarray(f, dtype=float), value),
                   label or f"flat {value}")

    def __repr__(self):
        return f"Spectrum({self.label or self._fn!r})"


class TabulatedSpectrum(Spectrum):
    """Spectrum backed by a frequency/value table, linearly interpolated.

    Evaluation outside the tabulated range clamps to the edge values.
    """

    def __init__(self, freqs, values, label: str = ""):
        freqs = np.asarray(freqs, dtype=float)
        values = np.asarray(values, dtype=float)
        if freqs.ndim != 1 or freqs.shape != values.shape:
            raise ValueError("freqs and values must be 1-d arrays of equal length")
        if freqs.size < 2 or np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly ascending with at least 2 points")
        self.freqs = freqs
        self.values = values
        super().__init__(lambda f: np.interp(f, freqs, values), label)

    def __repr__(self):
        return (f"TabulatedSpectrum({self.freqs.size} points, "
                f"{self.freqs[0]:.6g}..{self.freqs[-1]:.6g} Hz)")
