"""One-sided noise spectra as evaluable objects.

A spectrum is any callable mapping sideband frequency in Hz (scalar or
ndarray) to linear noise variance. A scalar frequency is evaluated as a
1-element array (see `elementwise`), so scalar and array results agree bit
for bit. Model spectra throughout the package are
shot-noise normalized: vacuum = 1.0 at every frequency. Tabulated spectra
produced by estimators carry whatever units the table was built in (e.g.
1/Hz for a physical PSD).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

__all__ = ["Spectrum", "TabulatedSpectrum"]


def elementwise(fn):
    """Evaluate fn(obj, f, *args), or fn(f) if it takes f alone, on f as a
    float array, so that fn's body takes arrays only.

    A 0-d f is evaluated as the 1-element array f.reshape(1) and its result
    returned as a float: a scalar gets the bits an array gives it, which
    numpy's scalar operations (such as its power) do not always round alike.
    """
    at = int(fn.__code__.co_argcount > 1)  # f's place among the arguments

    @functools.wraps(fn)
    def call(*args):
        args = [*args]
        f = args[at] = np.asarray(args[at], dtype=float)
        if f.ndim:
            return fn(*args)
        args[at] = f.reshape(1)
        return float(fn(*args)[0])

    return call


def in_domain(name: str, value, domain: str):
    """value, if it lies in domain; else a ValueError naming name.

    domain is an interval as the message prints it: "[0, 1)", "(0, inf]",
    "[-inf, 0)". A square bracket takes its end in, a round one leaves it
    out, and NaN lies in no interval.
    """
    lo, hi = map(float, domain[1:-1].split(","))
    if not ((lo <= value if domain[0] == "[" else lo < value)
            and (value <= hi if domain[-1] == "]" else value < hi)):
        raise ValueError(f"{name} must lie in {domain}, got {value!r}")
    return value


class Spectrum:
    """Wraps a vectorized frequency -> variance function and labels it.

    Measurement-chain maps compose by wrapping one spectrum's call in the
    next, so nothing is tabulated.
    """

    def __init__(self, fn: Callable, label: str = ""):
        self._fn = fn
        self.label = label

    @elementwise
    def __call__(self, f):
        """Evaluate on f as a float array; a float for scalar input."""
        return self._fn(f)

    @classmethod
    def flat(cls, value: float, label: str = "") -> "Spectrum":
        value = float(value)
        return cls(lambda f: np.full_like(f, value), label or f"flat {value}")

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
