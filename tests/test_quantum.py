import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import OMEGA, SUPERPOSITION, physical_by_eigenvalues
from sqzsim import (
    OpoParams,
    antisqueezed_variance,
    duan_inseparability,
    obeys_uncertainty,
    squeezed_variance,
)


def test_duan_examples():
    assert duan_inseparability(1.0, 1.0) == 1.0
    assert_allclose(duan_inseparability(0.33, 0.33), 0.33)
    assert_allclose(duan_inseparability(0.5, 0.7), 0.6)
    got = duan_inseparability(np.array([0.5, 1.0]), np.array([0.7, 1.0]))
    assert_allclose(got, [0.6, 1.0])


def test_duan_rejects_nonpositive():
    for s_plus, s_minus, name in ((0.0, 1.0, "s_plus"), (1.0, -0.3, "s_minus"),
                                  (np.inf, 1.0, "s_plus"), (1.0, np.nan, "s_minus"),
                                  (np.array([1.0, -0.0]), 1.0, "s_plus")):
        with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
            duan_inseparability(s_plus, s_minus)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0))
def test_duan_of_rotated_tmsv_is_exp_minus_2r(r):
    # the two-mode squeezed vacuum in the superposition basis: both squeezed
    # quadratures (p+, x-) carry S = e^(-2r), both anti-squeezed ones A = e^(2r)
    s_sq, s_anti = np.exp(-2 * r), np.exp(2 * r)
    assert_allclose(duan_inseparability(s_sq, s_sq), np.exp(-2 * r), rtol=1e-12, atol=1e-12)
    assert obeys_uncertainty(s_sq, s_anti)


def test_rotation_is_an_orthogonal_symplectic_involution():
    # so V + i Omega >= 0 may be checked in the superposition basis
    assert_allclose(SUPERPOSITION @ SUPERPOSITION, np.eye(4), atol=1e-15)
    assert_allclose(SUPERPOSITION @ SUPERPOSITION.T, np.eye(4), atol=1e-15)
    assert_allclose(SUPERPOSITION @ OMEGA @ SUPERPOSITION.T, OMEGA, atol=1e-15)


def test_rotation_of_tmsv_gives_pure_squeezing():
    # the two-mode squeezed vacuum, built in the signal/idler basis, becomes
    # diag(A+, S+, S-, A-) with S = e^(-2r) and A = e^(2r), the form
    # obeys_uncertainty assumes
    for r in (0.1, 0.5, 1.3):
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        tmsv = np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
        out = SUPERPOSITION @ tmsv @ SUPERPOSITION.T
        assert_allclose(np.diag(out), np.exp([2 * r, -2 * r, -2 * r, 2 * r]), rtol=1e-12)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-12


def test_physicality_identity_and_tmsv():
    assert obeys_uncertainty(1.0, 1.0)
    assert obeys_uncertainty(1.0 / 9.0, 9.0)
    for r in (0.3, 1.0, 2.0):
        assert obeys_uncertainty(np.exp(-2 * r), np.exp(2 * r))


def test_physicality_below_vacuum_pair_fails():
    for s_sq, s_anti in ((0.5, 1.5), (0.5, 0.5), (-1.0, -1.0), (0.0, 5.0), (-0.5, 3.0)):
        assert not obeys_uncertainty(s_sq, s_anti)
        assert not physical_by_eigenvalues(s_sq, s_anti)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0 - 1e-9),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=1e3, max_value=1e9),
    st.floats(min_value=0.0, max_value=1e12),
)
def test_physicality_agrees_with_symplectic_eigenvalue_oracle(sigma, eta, f_c, f):
    p = OpoParams(pump_ratio=sigma, cavity_hwhm=f_c, escape_efficiency=eta)
    s_sq, s_anti = squeezed_variance(p, f), antisqueezed_variance(p, f)
    assert obeys_uncertainty(s_sq, s_anti) == physical_by_eigenvalues(s_sq, s_anti)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.booleans(),
)
def test_closed_form_agrees_with_oracle_on_any_pair(log_sq, log_anti, negative):
    # hand-built pairs, physical or not, away from the boundary S- S+ = 1
    # where the oracle's rounding cannot resolve the sign
    s_sq, s_anti = 10.0**log_sq, 10.0**log_anti
    assume(abs(s_sq * s_anti - 1.0) > 1e-6)
    if negative:
        s_sq = -s_sq
    assert obeys_uncertainty(s_sq, s_anti) == physical_by_eigenvalues(s_sq, s_anti)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_loss_preserves_physicality(r, eta):
    # the loss map S -> eta S + 1 - eta, applied to a pure squeezed pair
    s_sq = eta * np.exp(-2 * r) + (1.0 - eta)
    s_anti = eta * np.exp(2 * r) + (1.0 - eta)
    assert obeys_uncertainty(s_sq, s_anti)
    assert physical_by_eigenvalues(s_sq, s_anti)
