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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .opo import OpoParams, squeezed_variance
from .spectra import Spectrum, elementwise, in_domain

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
        for name in ("relax_amp_plus", "relax_amp_minus", "lf_amp"):
            in_domain(name, getattr(self, name), "[0, inf)")
        for name in ("relax_center", "relax_fwhm", "lf_knee"):
            in_domain(name, getattr(self, name), "(0, inf)")
        in_domain("lf_exponent", self.lf_exponent, "(-inf, inf)")
        # excess_noise's scaled Lorentzian needs no bound on the width; this
        # one stays because it also caps the amplitudes, by keeping
        # max(1, amp) hw^2 finite
        amp = max(1.0, self.relax_amp_plus, self.relax_amp_minus)
        widest = 2 * math.sqrt(sys.float_info.max / amp)
        if not (self.relax_fwhm < widest and amp * (0.5 * self.relax_fwhm) ** 2 < np.inf):
            raise ValueError(
                f"relax_fwhm must be below {widest:.3g}, where max(1, relax_amp_plus, "
                f"relax_amp_minus) (relax_fwhm/2)^2 overflows, got {self.relax_fwhm}"
            )

    @classmethod
    def zero(cls) -> "ClassicalNoiseConfig":
        """Config with all excess noise switched off."""
        return cls(relax_amp_plus=0.0, relax_amp_minus=0.0, lf_amp=0.0)

    def relax_amp(self, mode: str) -> float:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return self.relax_amp_plus if mode == "plus" else self.relax_amp_minus


@elementwise
def excess_noise(config: ClassicalNoiseConfig, f, mode: str) -> float | np.ndarray:
    """Additive excess variance at sideband f > 0 for one superposition mode."""
    amp = config.relax_amp(mode)
    # one pass, as in opo._check_freq
    if np.fmin.reduce(f, axis=None, initial=np.inf) <= 0:
        raise ValueError("excess noise is defined for f > 0 only")
    hw = 0.5 * config.relax_fwhm
    # the scaled Lorentzian amp / (1 + ((f - c) / hw)^2) and the low-frequency
    # term are each one fresh array updated in place. Far from the centre the
    # square overflows to inf, and amp / inf = 0 is the right value, so that
    # overflow is not worth a warning; nor is the low-frequency term's, whose
    # inf is its value, which the commands that need a finite one refuse by
    # name (a negative exponent takes the term at f = inf to 0^-p = inf by a
    # divide)
    with np.errstate(over="ignore", divide="ignore"):
        lorentz = f - config.relax_center
        lorentz /= hw
        lorentz **= 2
        lorentz += 1.0
        np.divide(amp, lorentz, out=lorentz)
        if config.lf_amp == 0:
            # switched off: 0 x an overflowing power law would be NaN, and
            # lorentz + 0.0 is lorentz
            return lorentz
        out = config.lf_knee / f
        out **= config.lf_exponent
        out *= config.lf_amp
        out += lorentz
    return out


def total_spectrum(
    params: OpoParams, config: ClassicalNoiseConfig, mode: str
) -> Spectrum:
    """Squeezed quantum spectrum plus classical excess for one mode."""
    config.relax_amp(mode)  # validate mode eagerly

    def total(f):
        out = squeezed_variance(params, f)
        out += excess_noise(config, f, mode)
        return out

    return Spectrum(total, f"total spectrum ({mode} mode)")
