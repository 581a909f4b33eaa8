"""Homodyne detection chain: efficiency budget, dark noise, dB conversions.

The detector maps a shot-normalized input spectrum S to

    S_obs(f) = eta_det S(f) + (1 - eta_det) + 10^(dark_db/10)

with eta_det = quantum_efficiency * visibility^2 (mode overlap enters as a
power fraction). The detector response eta_det S + (1 - eta_det) is
observe_corrected, the dark-corrected spectrum; observe adds the white
electronic floor to it. The shot reference is measured with the source
blocked, so it is observe of vacuum, 1 + dark in the same units. Set
dark_noise_db = -inf for an ideal noiseless detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, elementwise, in_domain

__all__ = [
    "DetectionParams",
    "effective_efficiency",
    "observe",
    "observe_corrected",
    "observed_relative_to_shot",
    "to_db",
    "from_db",
]


@dataclass(frozen=True)
class DetectionParams:
    """Measured detection figures: 95% photodiode quantum efficiency and 0.97
    fringe visibility. The dark-noise level is only bounded in the lab
    (well below the traces); -6 dB relative to shot is a placeholder."""

    quantum_efficiency: float = 0.95
    visibility: float = 0.97
    dark_noise_db: float = -6.0

    def __post_init__(self):
        in_domain("quantum_efficiency", self.quantum_efficiency, "(0, 1]")
        in_domain("visibility", self.visibility, "(0, 1]")
        in_domain("dark_noise_db", self.dark_noise_db, "[-inf, 0)")  # dB below shot

    @property
    def dark_linear(self) -> float:
        return 0.0 if math.isinf(self.dark_noise_db) else 10 ** (self.dark_noise_db / 10)


def effective_efficiency(d: DetectionParams) -> float:
    """Homodyne efficiency: quantum efficiency times visibility squared."""
    return d.quantum_efficiency * d.visibility**2


def observe_corrected(spectrum, d: DetectionParams) -> Spectrum:
    """Detector response without the electronic floor: eta S + (1 - eta)."""
    eta = effective_efficiency(d)

    def corrected(f):
        # one fresh array, updated in place; the input's result is not written
        out = np.multiply(eta, spectrum(f))
        out += 1.0 - eta
        return out

    return Spectrum(corrected, "dark corrected")


def observe(spectrum, d: DetectionParams) -> Spectrum:
    """Detector response plus additive white electronic noise."""
    detected, dark = observe_corrected(spectrum, d), d.dark_linear

    def observed(f):
        out = detected(f)  # fresh, so it can take the floor in place
        out += dark
        return out

    return Spectrum(observed, "observed")


def observed_relative_to_shot(spectrum, d: DetectionParams) -> Spectrum:
    """Observed spectrum divided by the observed shot reference.

    This is what a normalized analyzer trace shows when neither the trace
    nor the blocked-source reference is dark-corrected.
    """
    observed, shot = observe(spectrum, d), observe(Spectrum.flat(1.0), d)(0.0)
    return Spectrum(lambda f: observed(f) / shot, "observed relative to shot")


@elementwise
def to_db(v) -> float | np.ndarray:
    """Linear power ratio to dB; strictly positive input required."""
    if np.any(v <= 0):
        raise ValueError("dB conversion requires strictly positive values")
    return 10.0 * np.log10(v)


@elementwise
def from_db(db) -> float | np.ndarray:
    return 10.0 ** (db / 10.0)
