import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sqzsim import (
    AboveThresholdError,
    OpoParams,
    antisqueezed_variance,
    obeys_uncertainty,
    squeezed_variance,
)

LOSSLESS_HALF = OpoParams(pump_ratio=0.5, cavity_hwhm=50e6, escape_efficiency=1.0)


def test_pump_off_is_vacuum():
    p = OpoParams(pump_ratio=0.0)
    f = np.array([0.0, 1e3, 1e6, 1e9])
    assert_allclose(squeezed_variance(p, f), 1.0)
    assert_allclose(antisqueezed_variance(p, f), 1.0)


def test_closed_form_at_dc():
    assert_allclose(squeezed_variance(LOSSLESS_HALF, 0.0), 1.0 / 9.0, rtol=1e-12)
    assert_allclose(antisqueezed_variance(LOSSLESS_HALF, 0.0), 9.0, rtol=1e-12)


def test_far_outside_bandwidth_is_vacuum():
    assert squeezed_variance(LOSSLESS_HALF, 1e12) == pytest.approx(1.0, abs=1e-6)
    assert antisqueezed_variance(LOSSLESS_HALF, 1e12) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("variance", [squeezed_variance, antisqueezed_variance])
def test_vacuum_where_the_frequency_squared_would_overflow(variance):
    # (f / f_c)^2 overflows from about 1e162 Hz; inf / inf would give NaN
    p = OpoParams()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = variance(p, np.array([1e200, 1e300, np.inf]))
        assert np.all(far == variance(p, 1e150))
        assert variance(p, 1e200) == variance(p, 1e150)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_lossless_minimum_uncertainty(sigma, f_over_fc):
    p = OpoParams(pump_ratio=sigma, cavity_hwhm=1e6, escape_efficiency=1.0)
    f = f_over_fc * p.cavity_hwhm
    prod = squeezed_variance(p, f) * antisqueezed_variance(p, f)
    assert abs(prod - 1.0) < 1e-12


def test_monotonic_in_frequency():
    p = OpoParams(pump_ratio=0.7, cavity_hwhm=10e6, escape_efficiency=0.85)
    f = np.linspace(0, 100e6, 5000)
    assert np.all(np.diff(squeezed_variance(p, f)) >= -1e-15)
    assert np.all(np.diff(antisqueezed_variance(p, f)) <= 1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=200e6),
)
def test_escape_efficiency_is_the_loss_map(sigma, eta, f):
    lossless = OpoParams(pump_ratio=sigma, cavity_hwhm=50e6, escape_efficiency=1.0)
    lossy = OpoParams(pump_ratio=sigma, cavity_hwhm=50e6, escape_efficiency=eta)
    s = squeezed_variance(lossless, f)
    assert abs(squeezed_variance(lossy, f) - (eta * s + (1 - eta))) < 1e-12
    s = antisqueezed_variance(lossless, f)
    assert abs(antisqueezed_variance(lossy, f) - (eta * s + (1 - eta))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.2, max_value=1.0),
    st.floats(min_value=0.0, max_value=500e6),
)
def test_covariance_always_physical(sigma, eta, f):
    p = OpoParams(pump_ratio=sigma, cavity_hwhm=50e6, escape_efficiency=eta)
    assert obeys_uncertainty(squeezed_variance(p, f), antisqueezed_variance(p, f))


def test_threshold_and_parameter_validation():
    with pytest.raises(AboveThresholdError):
        OpoParams(pump_ratio=1.0)
    with pytest.raises(AboveThresholdError):
        OpoParams(pump_ratio=1.5)
    with pytest.raises(ValueError):
        OpoParams(pump_ratio=-0.1)
    with pytest.raises(ValueError):
        OpoParams(cavity_hwhm=0.0)
    with pytest.raises(ValueError):
        OpoParams(escape_efficiency=0.0)
    with pytest.raises(ValueError):
        OpoParams(escape_efficiency=1.2)


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        squeezed_variance(LOSSLESS_HALF, -1.0)


def _langevin_spectra(sigma, eta, omega):
    """Each superposition mode's symmetrized output spectrum from input-output
    theory (Collett & Gardiner 1984), solved numerically: S = Re(M M^H + N N^H)
    with M = 2 eta (i omega - A)^-1 - 1 and N = 2 sqrt(eta (1 - eta))
    (i omega - A)^-1, for the drift matrix A = diag(-(1 - sigma), -(1 + sigma))
    in cavity half-widths. Returns the anti-squeezed then the squeezed entry of
    the diagonal, one per parameter set."""
    drift = np.zeros((sigma.size, 2, 2))
    drift[:, 0, 0], drift[:, 1, 1] = -(1.0 - sigma), -(1.0 + sigma)
    r = np.linalg.inv(1j * omega[:, None, None] * np.eye(2) - drift)
    m = 2.0 * eta[:, None, None] * r - np.eye(2)
    n = 2.0 * np.sqrt(eta * (1.0 - eta))[:, None, None] * r
    s = (m @ m.conj().transpose(0, 2, 1) + n @ n.conj().transpose(0, 2, 1)).real
    return s[:, 0, 0], s[:, 1, 1]


def test_closed_forms_match_the_linear_langevin_solve():
    rng = np.random.default_rng(20)
    n = 1000
    sigma = rng.uniform(0.0, 0.999, n)
    eta = 1.0 - rng.uniform(0.0, 1.0, n)  # in (0, 1]
    hwhm = 10.0 ** rng.uniform(5.0, 9.0, n)
    f = hwhm * 10.0 ** rng.uniform(-4.0, 3.0, n)
    anti, squeezed = _langevin_spectra(sigma, eta, f / hwhm)
    params = [OpoParams(*p) for p in zip(sigma, hwhm, eta)]
    assert_allclose([antisqueezed_variance(p, x) for p, x in zip(params, f)], anti,
                    rtol=1e-14, atol=2e-15)
    assert_allclose([squeezed_variance(p, x) for p, x in zip(params, f)], squeezed,
                    rtol=1e-14, atol=2e-15)
