"""Homodyne detection chain: efficiency budget, dark noise, dB conversions.

The detector maps a shot-normalized input spectrum S to

    S_obs(f) = eta_det S(f) + (1 - eta_det) + 10^(dark_db/10)

with eta_det = quantum_efficiency * visibility^2 (mode overlap enters as a
power fraction). The shot reference is measured with the source blocked, so
it reads 1 + dark in the same units. Dark noise is modeled white; set
dark_noise_db = -inf for an ideal noiseless detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum

__all__ = [
    "DetectionParams",
    "DarkCorrectionError",
    "effective_efficiency",
    "observe",
    "dark_correct",
    "observe_corrected",
    "observed_relative_to_shot",
    "to_db",
    "from_db",
]


class DarkCorrectionError(ValueError):
    """Dark-noise subtraction would push the spectrum to or below zero."""


@dataclass(frozen=True)
class DetectionParams:
    """Measured detection figures: 95% photodiode quantum efficiency and 0.97
    fringe visibility. The dark-noise level is only bounded in the lab
    (well below the traces); -6 dB relative to shot is a placeholder."""

    quantum_efficiency: float = 0.95
    visibility: float = 0.97
    dark_noise_db: float = -6.0

    def __post_init__(self):
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ValueError(
                f"quantum_efficiency must lie in (0, 1], got {self.quantum_efficiency}"
            )
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in (0, 1], got {self.visibility}")
        if not self.dark_noise_db < 0:
            raise ValueError(
                f"dark_noise_db must be negative (dB below shot), got {self.dark_noise_db}"
            )

    @property
    def dark_linear(self) -> float:
        return 0.0 if math.isinf(self.dark_noise_db) else 10 ** (self.dark_noise_db / 10)


def effective_efficiency(d: DetectionParams) -> float:
    """Homodyne efficiency: quantum efficiency times visibility squared."""
    return d.quantum_efficiency * d.visibility**2


def observe(spectrum, d: DetectionParams) -> Spectrum:
    """Detection loss plus additive white electronic noise."""
    eta = effective_efficiency(d)
    dark = d.dark_linear
    return Spectrum(
        lambda f: eta * np.asarray(spectrum(f)) + (1.0 - eta) + dark,
        "observed",
    )


def dark_correct(spectrum, dark_noise_db: float) -> Spectrum:
    """Subtract the electronic noise floor in linear units.

    The corrected spectrum raises DarkCorrectionError at evaluation time if
    the observed value does not exceed the dark level, naming the first
    offending frequency.
    """
    dark = 0.0 if math.isinf(dark_noise_db) else 10 ** (dark_noise_db / 10)

    def corrected(f):
        f = np.asarray(f, dtype=float)
        s = np.asarray(spectrum(f))
        bad = s <= dark
        if np.any(bad):
            f_bad = float(np.atleast_1d(f)[np.atleast_1d(bad)][0])
            raise DarkCorrectionError(
                f"observed spectrum ({float(np.atleast_1d(s)[np.atleast_1d(bad)][0]):.6g}) "
                f"does not exceed the dark level ({dark:.6g}) at {f_bad:.6g} Hz"
            )
        return s - dark

    return Spectrum(corrected, "dark corrected")


def observe_corrected(spectrum, d: DetectionParams) -> Spectrum:
    """Detected spectrum after dark-noise correction: eta S + (1 - eta)."""
    return dark_correct(observe(spectrum, d), d.dark_noise_db)


def observed_relative_to_shot(spectrum, d: DetectionParams) -> Spectrum:
    """Observed spectrum divided by the observed shot reference.

    This is what a normalized analyzer trace shows when neither the trace
    nor the blocked-source reference is dark-corrected.
    """
    eta = effective_efficiency(d)
    dark = d.dark_linear
    shot = eta + (1.0 - eta) + dark
    return Spectrum(
        lambda f: (eta * np.asarray(spectrum(f)) + (1.0 - eta) + dark) / shot,
        "observed relative to shot",
    )


def to_db(v) -> float | np.ndarray:
    """Linear power ratio to dB; strictly positive input required."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("dB conversion requires strictly positive values")
    out = 10.0 * np.log10(v)
    return float(out) if out.ndim == 0 else out


def from_db(db) -> float | np.ndarray:
    db = np.asarray(db, dtype=float)
    out = 10.0 ** (db / 10.0)
    return float(out) if out.ndim == 0 else out
