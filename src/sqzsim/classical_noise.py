"""Additive classical excess noise of the pump laser.

Two phenomenological ingredients, both in linear shot-noise units:

* a Lorentzian peak at the laser relaxation-oscillation frequency (near
  1 MHz), with independent amplitudes for the two superposition modes --
  the phase-noise-sensitive plus mode picks up less of it;
* a low-frequency power-law rise of technical noise below a knee frequency,
  identical on both modes.

Amplitudes are fits chosen so the default full chain reaches the shot-noise
limit near 50 kHz and stays 3 dB below it around 100 kHz; they are not
measured values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opo import OpoParams, squeezed_variance
from .spectra import Spectrum

__all__ = ["ClassicalNoiseConfig", "excess_noise", "total_spectrum", "MODES"]

MODES = ("plus", "minus")


@dataclass(frozen=True)
class ClassicalNoiseConfig:
    relax_center: float = 1e6
    relax_fwhm: float = 100e3
    relax_amp_plus: float = 0.5
    relax_amp_minus: float = 1.2
    lf_knee: float = 50e3
    lf_exponent: float = 2.0
    lf_amp: float = 0.75

    def __post_init__(self):
        # every comparison with NaN is false, so NaN fails each check
        for name in ("relax_amp_plus", "relax_amp_minus", "lf_amp"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("relax_center", "relax_fwhm", "lf_knee"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not -np.inf < self.lf_exponent < np.inf:
            raise ValueError(f"lf_exponent must be finite, got {self.lf_exponent}")

    @classmethod
    def zero(cls) -> "ClassicalNoiseConfig":
        """Config with all excess noise switched off."""
        return cls(relax_amp_plus=0.0, relax_amp_minus=0.0, lf_amp=0.0)

    def relax_amp(self, mode: str) -> float:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return self.relax_amp_plus if mode == "plus" else self.relax_amp_minus


def excess_noise(config: ClassicalNoiseConfig, f, mode: str) -> float | np.ndarray:
    """Additive excess variance at sideband f > 0 for one superposition mode."""
    amp = config.relax_amp(mode)
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("excess noise is defined for f > 0 only")
    hw = 0.5 * config.relax_fwhm
    lorentz = amp * hw**2 / ((f - config.relax_center) ** 2 + hw**2)
    lowfreq = config.lf_amp * (config.lf_knee / f) ** config.lf_exponent
    out = lorentz + lowfreq
    return float(out) if out.ndim == 0 else out


def total_spectrum(
    params: OpoParams, config: ClassicalNoiseConfig, mode: str
) -> Spectrum:
    """Squeezed quantum spectrum plus classical excess for one mode."""
    config.relax_amp(mode)  # validate mode eagerly
    return Spectrum(
        lambda f: squeezed_variance(params, f) + excess_noise(config, f, mode),
        f"total spectrum ({mode} mode)",
    )
