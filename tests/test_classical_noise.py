import dataclasses
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from sqzsim import (
    ClassicalNoiseConfig,
    OpoParams,
    excess_noise,
    squeezed_variance,
    total_spectrum,
)

DEFAULTS = ClassicalNoiseConfig()


def test_peak_value_is_amplitude_plus_lowfreq():
    f0 = DEFAULTS.relax_center
    lf = DEFAULTS.lf_amp * (DEFAULTS.lf_knee / f0) ** DEFAULTS.lf_exponent
    assert_allclose(excess_noise(DEFAULTS, f0, "minus"), DEFAULTS.relax_amp_minus + lf)
    assert_allclose(excess_noise(DEFAULTS, f0, "plus"), DEFAULTS.relax_amp_plus + lf)


def test_half_width_point_gives_half_amplitude():
    f = DEFAULTS.relax_center + DEFAULTS.relax_fwhm / 2
    lf = DEFAULTS.lf_amp * (DEFAULTS.lf_knee / f) ** DEFAULTS.lf_exponent
    lorentz = excess_noise(DEFAULTS, f, "minus") - lf
    assert_allclose(lorentz, DEFAULTS.relax_amp_minus / 2, rtol=1e-12)


def test_far_from_peak_and_knee_is_negligible():
    # localized noise: well past both features the excess is < 1e-3 of the peak
    assert excess_noise(DEFAULTS, 20e6, "minus") < 1e-3 * DEFAULTS.relax_amp_minus


def test_low_frequency_term_beyond_the_float_range_is_inf_without_a_warning():
    # warnings are errors under pytest: (lf_knee / f)^lf_exponent overflows
    # quietly, at a tiny f or a huge knee, as the Lorentzian's far side does
    f = np.array([5e-324, 1e-200, 1e3])
    assert excess_noise(DEFAULTS, f, "minus").tolist()[:2] == [math.inf, math.inf]
    huge_knee = dataclasses.replace(DEFAULTS, lf_knee=1e300)
    assert excess_noise(huge_knee, 3.5e6, "plus") == math.inf


def test_a_lorentzian_wider_than_the_square_root_of_the_float_range():
    # (f - c)^2 + hw^2 overflows here, and the unscaled form gave 0.0
    config = ClassicalNoiseConfig(relax_center=1e154, relax_fwhm=2e154, lf_amp=0.0)
    assert excess_noise(config, 2e154, "plus") == 0.25
    assert excess_noise(config, 2e154, "minus") == 0.6


def test_nonnegative_everywhere():
    f = np.logspace(2, 8, 2001)
    for mode in ("plus", "minus"):
        assert np.all(excess_noise(DEFAULTS, f, mode) >= 0.0)


def test_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        excess_noise(DEFAULTS, 0.0, "minus")
    with pytest.raises(ValueError):
        excess_noise(DEFAULTS, np.array([1e3, -1e3]), "plus")


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        excess_noise(DEFAULTS, 1e6, "up")


def test_config_validation():
    with pytest.raises(ValueError):
        ClassicalNoiseConfig(relax_amp_plus=-0.1)
    with pytest.raises(ValueError):
        ClassicalNoiseConfig(relax_fwhm=0.0)
    with pytest.raises(ValueError):
        ClassicalNoiseConfig(lf_knee=-1.0)
    # relax_amp (relax_fwhm/2)^2 must not overflow; just below the bound it is finite
    for config in (DEFAULTS, ClassicalNoiseConfig.zero()):
        widest = 2 * math.sqrt(sys.float_info.max / max(1.0, config.relax_amp("minus")))
        for fwhm in (widest, 1e200, 10**400):
            with pytest.raises(ValueError, match="relax_fwhm must be below"):
                dataclasses.replace(config, relax_fwhm=fwhm)
        config = dataclasses.replace(config, relax_fwhm=math.nextafter(widest, 0))
        for mode in ("plus", "minus"):
            assert np.isfinite(excess_noise(config, [1e3, 1e6, 1e300], mode)).all()


def test_a_switched_off_low_frequency_term_adds_nothing():
    # the power law overflows below about 1e146 Hz, and 0 x inf would be NaN
    # with a warning; the Lorentzian alone keeps its bits
    config = ClassicalNoiseConfig(lf_knee=1e300, lf_amp=0.0)
    f = np.array([5e-324, 1e-10, 1.0, 1e6, 1e140, 1e150])
    hw = 0.5 * config.relax_fwhm
    for mode in ("plus", "minus"):
        lorentz = config.relax_amp(mode) / (1.0 + ((f - config.relax_center) / hw) ** 2)
        got = excess_noise(config, f, mode)
        assert got.tobytes() == lorentz.tobytes()
        assert excess_noise(config, 1e-10, mode) == lorentz[1]


def test_total_is_additive():
    opo = OpoParams()
    f = np.logspace(4, 7, 500)
    for mode in ("plus", "minus"):
        total = total_spectrum(opo, DEFAULTS, mode)(f)
        diff = total - squeezed_variance(opo, f)
        assert_allclose(diff, excess_noise(DEFAULTS, f, mode), rtol=0, atol=1e-12)


def test_zero_config_reduces_to_quantum_model():
    opo = OpoParams()
    f = np.logspace(3, 8, 300)
    total = total_spectrum(opo, ClassicalNoiseConfig.zero(), "plus")(f)
    assert_allclose(total, squeezed_variance(opo, f), rtol=0, atol=0)


def test_relaxation_peak_is_weaker_on_plus_mode():
    opo = OpoParams()
    at_peak_minus = total_spectrum(opo, DEFAULTS, "minus")(1e6)
    at_peak_plus = total_spectrum(opo, DEFAULTS, "plus")(1e6)
    assert at_peak_minus > at_peak_plus


def test_default_total_at_100khz_is_3db_down():
    opo = OpoParams()
    for mode in ("plus", "minus"):
        assert total_spectrum(opo, DEFAULTS, mode)(100e3) <= 0.54


def test_default_total_crosses_shot_noise_near_50khz():
    opo = OpoParams()
    for mode in ("plus", "minus"):
        s = total_spectrum(opo, DEFAULTS, mode)
        crossing = brentq(lambda f: s(f) - 1.0, 10e3, 200e3)
        assert 40e3 <= crossing <= 60e3
