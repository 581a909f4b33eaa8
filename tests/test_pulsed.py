import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzsim import (
    OpoParams,
    PiecewiseSpectrum,
    PulsedWindow,
    Spectrum,
    clamp_to_shot_below,
    flat_window_variance,
    improvement_factor,
    pulsed_variance,
    pulsed_variance_with_error,
    squeezed_variance,
)
from sqzsim.pulsed import _GL_WEIGHTS, _distinct_sorted, _lobe_table, _sinc2

T_1US = PulsedWindow(duration=1e-6)

# 3 dB squeezed above a 50 kHz knee, shot-limited below
EXAMPLE = PiecewiseSpectrum(breakpoints=(50e3,), values=(1.0,), tail_value=10 ** (-3 / 10))

# frozen brute-force value for EXAMPLE at T = 1 us: piecewise-split trapezoid
# (1e7 points per segment up to 1e9 Hz) plus the exact flat-tail remainder
EXAMPLE_ORACLE = 2.754660138921e-07


def test_flat_closed_form_over_window_decades():
    for t in np.logspace(-8, -3, 11):
        w = PulsedWindow(duration=t)
        value = pulsed_variance(Spectrum.flat(1.0), w)
        assert abs(value - t / 2) <= 1e-9 * (t / 2)


def test_half_level_is_half_variance():
    v1 = pulsed_variance(Spectrum.flat(1.0), T_1US)
    v2 = pulsed_variance(Spectrum.flat(0.5), T_1US)
    assert v2 == pytest.approx(0.5 * v1, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_linearity_in_spectrum_scale(a):
    base = pulsed_variance(EXAMPLE, T_1US)
    scaled_spec = PiecewiseSpectrum(
        breakpoints=(50e3,), values=(a,), tail_value=a * 10 ** (-3 / 10)
    )
    assert pulsed_variance(scaled_spec, T_1US) == pytest.approx(a * base, rel=1e-9)


def test_monotone_in_spectrum():
    lo = PiecewiseSpectrum(breakpoints=(50e3,), values=(0.5,), tail_value=0.4)
    hi = PiecewiseSpectrum(breakpoints=(50e3,), values=(0.9,), tail_value=0.5)
    assert pulsed_variance(lo, T_1US) <= pulsed_variance(hi, T_1US)


def test_window_scaling_for_flat_spectra():
    durations = np.logspace(-8, -4, 5)
    values = [
        pulsed_variance(Spectrum.flat(1.0), PulsedWindow(duration=t))
        for t in durations
    ]
    ratios = np.diff(np.log10(values))
    np.testing.assert_allclose(ratios, 1.0, atol=1e-9)


def test_example_matches_brute_force_oracle():
    value, err = pulsed_variance_with_error(EXAMPLE, T_1US)
    assert abs(value - EXAMPLE_ORACLE) / EXAMPLE_ORACLE < 1e-5
    assert err < 1e-6 * value


def test_example_improvement_factor():
    factor = improvement_factor(EXAMPLE, T_1US)
    assert 1.6 <= factor <= 2.0
    assert factor == pytest.approx(1.8151, abs=2e-3)


def test_constant_spectrum_improvement_factors():
    assert improvement_factor(Spectrum.flat(1.0), T_1US) == pytest.approx(1.0, rel=1e-9)
    factor = improvement_factor(Spectrum.flat(10 ** (-3 / 10)), T_1US)
    assert factor == pytest.approx(10 ** (3 / 10), rel=1e-9)


def test_flat_window_variance_helper():
    assert flat_window_variance(1.0, T_1US) == 5e-7
    assert flat_window_variance(0.5, PulsedWindow(2e-6)) == 5e-7


def test_negative_and_unbounded_spectra_rejected():
    with pytest.raises(ValueError, match="negative"):
        pulsed_variance(Spectrum.flat(-0.1), T_1US)
    diverging = Spectrum(lambda f: np.where(f > 1e8, np.inf, 1.0))
    with pytest.raises(ValueError, match="unbounded"):
        pulsed_variance(diverging, T_1US)


def test_low_frequency_divergence_reported():
    # technical 1/f^2 noise makes the window variance ill-defined unless a
    # feedback clamp flattens it
    noisy = Spectrum(lambda f: 1.0 + (50e3 / np.asarray(f)) ** 2)
    with pytest.raises((ValueError, RuntimeError), match="clamp"):
        pulsed_variance(noisy, T_1US)
    clamped = clamp_to_shot_below(noisy, 50e3)
    assert pulsed_variance(clamped, T_1US) > 0


def test_clamp_only_acts_below_knee():
    spec = Spectrum(lambda f: np.full_like(np.asarray(f, dtype=float), 1.7))
    clamped = clamp_to_shot_below(spec, 1e5)
    assert clamped(5e4) == 1.0
    assert clamped(2e5) == 1.7


def test_window_validation():
    for bad in (0.0, -1e-6, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            PulsedWindow(duration=bad)
    # the near field ends at 1000 / T, which must be a float
    for short in (5e-324, 1e-306):
        with pytest.raises(ValueError, match="too short"):
            PulsedWindow(duration=short)


# closed-form oracles over windows from 1 ns to 10 ms; the engine switches to
# the lobe-averaged far field at 1000 / T, so the long windows put the whole
# OPO Lorentzian into it
ORACLE_WINDOWS = np.logspace(-9, -2, 15)


def _assert_matches(spectrum, t, exact):
    value, err = pulsed_variance_with_error(spectrum, PulsedWindow(duration=t))
    assert abs(value - exact) <= 1e-7 * exact
    assert abs(value - exact) <= err


@pytest.mark.parametrize("t", ORACLE_WINDOWS)
def test_opo_term_matches_wiener_khinchin_closed_form(t):
    # sigma^2 = 2 int_0^T (T - tau) R(tau) dtau for the OPO's Lorentzian
    opo = OpoParams()
    eta, sig, fc = opo.escape_efficiency, opo.pump_ratio, opo.cavity_hwhm
    k = 2 * math.pi * fc * (1 + sig)
    exact = t / 2 - (4 * eta * sig * math.pi * fc / (1 + sig)) * (
        t / k + math.expm1(-k * t) / k**2
    )
    _assert_matches(Spectrum(lambda f: squeezed_variance(opo, f)), t, exact)


def _sine_integral_closed_form(spec, t):
    """Band by band through int_0^X sin^2(u) / u^2 du = Si(2X) - sin^2(X) / X."""
    from scipy.special import sici

    def band(x):
        return sici(2 * x)[0] - math.sin(x) ** 2 / x

    upto = [band(math.pi * b * t) for b in spec.breakpoints] + [math.pi / 2]
    levels = spec.values + (spec.tail_value,)
    return t / math.pi * sum(v * (hi - lo) for v, lo, hi in zip(levels, [0.0] + upto, upto))


@pytest.mark.parametrize("t", ORACLE_WINDOWS)
def test_piecewise_bands_match_sine_integral_closed_form(t):
    # one breakpoint lies beyond 1000 / T, off the sinc zeros, where only the
    # per-breakpoint term of the error budget covers the lobe average
    spec = PiecewiseSpectrum(
        breakpoints=sorted((50e3, 2e6, 1000.25 / t)), values=(1.0, 0.5, 0.8),
        tail_value=0.6,
    )
    _assert_matches(spec, t, _sine_integral_closed_form(spec, t))


# breakpoints in lobes (b T): on a lobe edge, inside a lobe, two in one lobe,
# and inside lobe 0 as in the --example spectrum at T = 1 us; T = 2^-20 s
# makes b T exact
@pytest.mark.parametrize("t, lobes_at", [
    (2.0**-20, (3.0,)),
    (2.0**-20, (3.5,)),
    (2.0**-20, (7.25, 7.75)),
    (1e-6, (0.05,)),
])
def test_breakpoints_in_the_near_field_match_sine_integral(t, lobes_at):
    spec = PiecewiseSpectrum(
        breakpoints=tuple(u / t for u in lobes_at), values=(1.0, 0.3)[: len(lobes_at)],
        tail_value=0.6,
    )
    exact = _sine_integral_closed_form(spec, t)
    value, err = pulsed_variance_with_error(spec, PulsedWindow(duration=t))
    assert abs(value - exact) <= 1e-9 * exact
    assert abs(value - exact) <= err


def test_sinc2_kernels_match_mpmath():
    import mpmath

    def rel_err(got, u, scale=1.0):
        with mpmath.workdps(30):
            x = mpmath.pi * mpmath.mpf(float(u))
            want = (mpmath.sin(x) / x) ** 2 * mpmath.mpf(float(scale))
            return float(abs(mpmath.mpf(float(got)) / want - 1))

    # the table's weights are half the GL weight times sinc^2 at its node
    nodes, weights = _lobe_table()
    for k in (0, 1, 499, 999):
        for u, w, gl in zip(nodes[k], weights[k], _GL_WEIGHTS):
            assert rel_err(w, u, gl / 2) <= 1e-15, (k, u)
    u = np.random.default_rng(7).uniform(0.0, 1000.0, 500)
    for ui, got in zip(u, _sinc2(u)):
        assert rel_err(got, ui) <= 1e-15, ui


def test_refinement_cap_names_the_largest_error_source():
    # a square wave with undeclared jumps every 0.15 lobes: each jump needs
    # its own run of bisections, more than the refinement budget allows
    wave = Spectrum(lambda f: 1.5 + 0.5 * np.sign(np.sin(2 * np.pi * np.asarray(f) * 3.3e-6)))
    with pytest.raises(RuntimeError, match=r"panels.*near field.*clamp"):
        pulsed_variance(wave, T_1US)


_EDGES = st.lists(st.sampled_from([0.0, 1e-300, 0.125, 1.0, 5e4, 1e9]), max_size=12)


@given(st.lists(_EDGES, min_size=1, max_size=3))
def test_edge_sets_match_np_unique(arrays):
    # the reference the panel edges are built to reproduce bit for bit; the
    # cuts of a spectrum without near-field breakpoints are empty
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    got = _distinct_sorted(*arrays)
    assert got.tobytes() == np.unique(np.concatenate(arrays)).tobytes()
