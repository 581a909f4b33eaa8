import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sqzsim import (
    DetectionParams,
    Spectrum,
    default_config,
    effective_efficiency,
    from_db,
    observe,
    observe_corrected,
    observed_relative_to_shot,
    to_db,
    total_spectrum,
)

NO_DARK = DetectionParams(quantum_efficiency=0.894, visibility=1.0, dark_noise_db=-math.inf)


def test_effective_efficiency_values():
    assert effective_efficiency(DetectionParams(1.0, 1.0, -60.0)) == 1.0
    assert effective_efficiency(DetectionParams(0.95, 1.0, -60.0)) == pytest.approx(0.95)
    assert effective_efficiency(DetectionParams(0.95, 0.97, -60.0)) == pytest.approx(
        0.893855, abs=1e-9
    )


def test_observe_vacuum_fixed_point():
    out = observe(Spectrum.flat(1.0), NO_DARK)
    assert_allclose(out(np.logspace(3, 7, 50)), 1.0, rtol=1e-15)


def test_observe_arithmetic():
    out = observe(Spectrum.flat(0.25), NO_DARK)
    assert out(1e6) == pytest.approx(0.3295, abs=1e-12)


def test_dark_noise_adds_linearly():
    with_dark = DetectionParams(1.0, 1.0, -10.0)
    out = observe(Spectrum.flat(1.0), with_dark)
    assert out(1e5) == pytest.approx(1.1, abs=1e-12)


def test_observe_is_the_corrected_response_plus_dark():
    d = DetectionParams(0.95, 0.97, -6.0)
    s_in = Spectrum(lambda f: 0.3 + f / 1e8)
    f = np.logspace(3, 7, 101)
    eta = effective_efficiency(d)
    assert_allclose(observe_corrected(s_in, d)(f), eta * s_in(f) + (1 - eta), rtol=1e-15)
    # bit for bit, on arrays and on scalars
    assert np.array_equal(observe(s_in, d)(f), observe_corrected(s_in, d)(f) + d.dark_linear)
    for x in f[::10]:
        assert observe(s_in, d)(x) == observe_corrected(s_in, d)(x) + d.dark_linear


def test_detector_maps_do_not_write_the_spectrum_they_wrap():
    # writing the wrapped spectrum's read-only result would raise
    cfg = default_config()
    band = 1e3 + 2e3 * np.arange(50_000)
    levels = total_spectrum(cfg.opo, cfg.noise, "minus")(band)
    levels.flags.writeable = False
    for detected in (observe_corrected(lambda f: levels, cfg.detection),
                     observe(lambda f: levels, cfg.detection)):
        assert detected(band).flags.writeable


def test_observe_composes_with_escape_loss():
    # loss maps compose into a single total-efficiency loss
    eta_esc, s0 = 0.9, 0.2
    source = Spectrum.flat(eta_esc * s0 + (1 - eta_esc))
    detected = observe(source, NO_DARK)
    eta_tot = 0.894 * eta_esc
    assert detected(1e5) == pytest.approx(eta_tot * s0 + (1 - eta_tot), abs=1e-12)


@pytest.mark.parametrize("d", [DetectionParams(0.95, 0.97, -6.0), NO_DARK,
                               DetectionParams(0.3, 0.5, -0.01)])
def test_observed_relative_to_shot_of_vacuum_is_exactly_one(d):
    # the shot reference is observed vacuum, so vacuum over it is 1
    rel = observed_relative_to_shot(Spectrum.flat(1.0), d)
    assert rel(1e6) == 1.0
    assert np.all(rel(np.logspace(0, 9, 64)) == 1.0)


def test_observed_relative_to_shot():
    d = DetectionParams(0.95, 0.97, -6.0)
    eta, dark = effective_efficiency(d), d.dark_linear
    rel2 = observed_relative_to_shot(Spectrum.flat(0.25), d)
    assert rel2(1e6) == pytest.approx((eta * 0.25 + 1 - eta + dark) / (1 + dark))


def test_db_conversions():
    assert to_db(1.0) == 0.0
    assert to_db(0.5) == pytest.approx(-3.0103, abs=1e-4)
    assert to_db(0.33) == pytest.approx(-4.814860601221125, abs=1e-9)
    assert from_db(-10.0) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        to_db(0.0)
    with pytest.raises(ValueError):
        to_db(np.array([1.0, -2.0]))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-80.0, max_value=80.0))
def test_db_round_trip(db):
    assert to_db(from_db(db)) == pytest.approx(db, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        DetectionParams(quantum_efficiency=0.0)
    with pytest.raises(ValueError):
        DetectionParams(visibility=1.0001)
    with pytest.raises(ValueError):
        DetectionParams(dark_noise_db=0.0)
    assert DetectionParams(dark_noise_db=-math.inf).dark_linear == 0.0
