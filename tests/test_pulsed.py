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
    default_config,
    flat_window_variance,
    improvement_factor,
    observe_corrected,
    pulsed_variance,
    pulsed_variance_with_error,
    squeezed_variance,
    total_spectrum,
)
from sqzsim.pulsed import _distinct_sorted, _gl_rule, _lobe_table, _sinc2

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
        for u, w, gl in zip(nodes[k], weights[k], _gl_rule()[1]):
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


def _sweep_spectra():
    """The spectra of the benchmark's pulsed sweep, built through the public
    API: the --example spectrum, flat 1.0, the dark-corrected detected chain
    of each mode clamped below the knee, and the bare OPO term."""
    cfg = default_config()

    def chain(mode):
        detected = observe_corrected(total_spectrum(cfg.opo, cfg.noise, mode), cfg.detection)
        return clamp_to_shot_below(detected, cfg.noise.lf_knee)

    return {
        "piecewise": EXAMPLE,
        "flat": Spectrum.flat(1.0),
        "minus": chain("minus"),
        "plus": chain("plus"),
        "opo": Spectrum(lambda f: squeezed_variance(cfg.opo, f)),
    }


# float.hex of (value, error) on the windows np.logspace(-8, -3, 11), frozen
# from the engine that made one spectrum call per panel set; the engine may
# batch its spectrum calls, but must return these bits. The clamped-chain
# rows ("minus", "plus") are refrozen when ROADMAP item 1 declares the clamp
# knee as a breakpoint. Every value rests on the lobe-table weights, so on
# np.sin, whose float64 loop numpy picks by CPU: these bits (and the
# breakpoint table below) were frozen with numpy 2.4.6 on an x86-64 CPU with
# AVX512_SKX, where numpy takes the SVML loop. Elsewhere the libm loop can
# differ in the last bits, and a failure there is no engine change until the
# tables, refrozen from the one-call-per-panel-set engine on that host, differ.
FROZEN_SWEEP = {
    "piecewise": (
        ("0x1.58c18ae8efee5p-29", "0x1.945b0f3e56857p-66"),
        ("0x1.1123b825f80e9p-27", "0x1.3efbb33847b55p-64"),
        ("0x1.b2cd1be872d45p-26", "0x1.f50dc03edc89ap-63"),
        ("0x1.5f0fecdb6b593p-24", "0x1.84a065dc4b7dbp-61"),
        ("0x1.27c78573a2baep-22", "0x1.25b7010b38fe4p-59"),
        ("0x1.15dedf91afc08p-20", "0x1.b8567ed6933b5p-58"),
        ("0x1.29aab32481f2ap-18", "0x1.593798c1203a2p-56"),
        ("0x1.010d2202dfc2bp-16", "0x1.4ba38be0eed73p-54"),
        ("0x1.9f3302d8de3e0p-15", "0x1.30c81e16cf2d0p-52"),
        ("0x1.4a89f5457caebp-13", "0x1.03688d6cfe02fp-50"),
        ("0x1.05e1080565abfp-11", "0x1.a9a0cfcda9e1bp-49"),
    ),
    "flat": (
        ("0x1.5798ee231056cp-28", "0x1.93cd2ece49c4cp-65"),
        ("0x1.0fa3389d74b10p-26", "0x1.3f3bad3b3b934p-63"),
        ("0x1.ad7f29abd46c6p-25", "0x1.f8c07a81dc35fp-62"),
        ("0x1.538c06c4d1dd4p-23", "0x1.8f0a988a0a781p-60"),
        ("0x1.0c6f7a0b64c3cp-21", "0x1.3b784c9129a1bp-58"),
        ("0x1.a86f087606549p-20", "0x1.f2cd3eac8d161p-57"),
        ("0x1.4f8b588e3df4bp-18", "0x1.8a565fb5740a2p-55"),
        ("0x1.09456549c3f4ep-16", "0x1.37c0472bd82ddp-53"),
        ("0x1.a36e2eb1cd71ep-15", "0x1.ecebf7a2d10ccp-52"),
        ("0x1.4b96be9c34f21p-13", "0x1.85b058f6ce394p-50"),
        ("0x1.0624dd2f20673p-11", "0x1.34137ac5c2a7fp-48"),
    ),
    "minus": (
        ("0x1.4bd924a1af244p-29", "0x1.c58853d8d3d73p-51"),
        ("0x1.a9d2f4aeb7155p-28", "0x1.3901e45105bfcp-49"),
        ("0x1.4ee971c9f3edcp-26", "0x1.0b425875eb49bp-49"),
        ("0x1.30d127164e6e9p-24", "0x1.852d2251559f8p-45"),
        ("0x1.f0ca15f9128ecp-23", "0x1.e992bc90c18e4p-43"),
        ("0x1.18f18be53ea33p-20", "0x1.ac3eac7090ad0p-41"),
        ("0x1.331fc7ba72e4ap-18", "0x1.f6d26aff0e2c8p-50"),
        ("0x1.0213f13538946p-16", "0x1.0387943886002p-36"),
        ("0x1.9fba386c7803fp-15", "0x1.ee91748e155cap-53"),
        ("0x1.4aaa6c21a7e09p-13", "0x1.4c2ef346a2954p-40"),
        ("0x1.05e9caa667667p-11", "0x1.be298394d6041p-41"),
    ),
    "plus": (
        ("0x1.4a856da5687f4p-29", "0x1.592270a9b0592p-52"),
        ("0x1.a337d9344b706p-28", "0x1.8d18a3264cae6p-48"),
        ("0x1.3ef6fdefe4688p-26", "0x1.f4619bdc5c319p-47"),
        ("0x1.13dff68159491p-24", "0x1.9e140753814f6p-45"),
        ("0x1.ebc3c6eee5019p-23", "0x1.5309de7546271p-43"),
        ("0x1.17569ae1a0a57p-20", "0x1.752f83f36729cp-41"),
        ("0x1.32a974e0ad0ecp-18", "0x1.b635cb4d9383ap-51"),
        ("0x1.01f68fc81acbdp-16", "0x1.0bd168864bb15p-38"),
        ("0x1.9fab6650be621p-15", "0x1.ed3ba679d8cbap-53"),
        ("0x1.4aa6b9b270bbdp-13", "0x1.50221202c923ep-40"),
        ("0x1.05e8dd67b75d7p-11", "0x1.bc7428b5ca213p-41"),
    ),
    "opo": (
        ("0x1.1e1376beeb0c9p-29", "0x1.c0834b1904d8fp-55"),
        ("0x1.498dc6f079a62p-28", "0x1.66ff2a54ca2f3p-63"),
        ("0x1.caa130361d8b6p-27", "0x1.93c5b14ca0d97p-62"),
        ("0x1.5af7e78ec2a04p-25", "0x1.28fea956d8fedp-60"),
        ("0x1.0e6668f826d7dp-23", "0x1.c22a5fae93b54p-59"),
        ("0x1.a996b6dd9af56p-22", "0x1.54ce6d9be6439p-57"),
        ("0x1.4ff83890eef6dp-20", "0x1.b220ce0440e4bp-56"),
        ("0x1.097c3fa12412dp-18", "0x1.9508b23b4ecdbp-55"),
        ("0x1.a3b54d6077c6ep-17", "0x1.fe86647420782p-54"),
        ("0x1.4bcb113442d25p-15", "0x1.2b25ab2bd811dp-50"),
        ("0x1.064d40c6ff2d7p-13", "0x1.eee168560dc18p-41"),
    ),
}


@pytest.mark.parametrize("name", FROZEN_SWEEP)
def test_sweep_values_and_errors_are_frozen_bit_for_bit(name):
    spectrum = _sweep_spectra()[name]
    got = [
        tuple(v.hex() for v in pulsed_variance_with_error(spectrum, PulsedWindow(t)))
        for t in np.logspace(-8, -3, 11)
    ]
    assert got == list(FROZEN_SWEEP[name])


# one breakpoint, in lobes (b T) at T = 2^-20 s, where b T is exact: inside a
# lobe, on a lobe edge, and beyond x = 1000 / T; frozen like FROZEN_SWEEP
@pytest.mark.parametrize("lobes_at, value, error", [
    (3.5, "0x1.fa0c1d19dbc4fp-22", "0x1.93f1ab35ee834p-59"),
    (3.0, "0x1.f91ef07d7b424p-22", "0x1.99419d35ee834p-59"),
    (2500.25, "0x1.fffde01731987p-22", "0x1.1dfb300ea6c74p-51"),
])
def test_breakpoint_values_and_errors_are_frozen_bit_for_bit(lobes_at, value, error):
    t = 2.0**-20
    spec = PiecewiseSpectrum(breakpoints=(lobes_at / t,), values=(1.0,), tail_value=0.6)
    got = pulsed_variance_with_error(spec, PulsedWindow(duration=t))
    assert tuple(v.hex() for v in got) == (value, error)


class _Counting:
    """A spectrum that records the points of every call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def __getattr__(self, name):  # breakpoints, when the inner spectrum has them
        return getattr(self.inner, name)

    def __call__(self, f):
        self.calls.append(np.array(f, dtype=float, ndmin=1))
        return self.inner(f)


@pytest.mark.parametrize("spectrum, far_bp", [
    (Spectrum.flat(1.0), ()),
    # a breakpoint inside lobe 0 and one at 2000.25 lobes, beyond x
    (PiecewiseSpectrum(breakpoints=(50e3, 2.00025e9), values=(1.0, 0.5), tail_value=0.7),
     (2.00025e9,)),
])
def test_one_spectrum_call_besides_the_lobe_table(spectrum, far_bp):
    counting = _Counting(spectrum)
    pulsed_variance_with_error(counting, T_1US)
    # no refinement: six chunks of the 1000 x 24 lobe table, and one call for
    # the rest, whose first points are the far-field breakpoints, the floats
    # just below them, then x
    assert len(counting.calls) == 7
    first = counting.calls[0]
    lead = np.concatenate((far_bp, np.nextafter(far_bp, 0.0), [1000 / T_1US.duration]))
    assert first[: lead.size].tobytes() == lead.tobytes()
    assert sum(c.size for c in counting.calls[1:]) == 24_000


class _Spiked:
    """1.0 everywhere but at one frequency; declares one far-field breakpoint."""

    breakpoints = (2.00025e9,)

    def __init__(self, at, level):
        self.at, self.level = at, level

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        return np.where(f == self.at, self.level, 1.0)


@pytest.mark.parametrize("at, level, message", [
    (_Spiked.breakpoints[0], -1.0, "negative"),  # seen only at the breakpoint
    (1000 / T_1US.duration, math.nan, "unbounded"),  # seen only at x
])
def test_points_outside_the_panels_are_checked(at, level, message):
    with pytest.raises(ValueError, match=message):
        pulsed_variance(_Spiked(at, level), T_1US)
