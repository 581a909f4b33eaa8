import functools
import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from sqzsim import pulsed as pulsed_module
from sqzsim.pulsed import _GL_NODES, _GL_WEIGHTS, _lobe_panels, _lobe_table, _sinc2

from conftest import sweep_spectra

T_1US = PulsedWindow(duration=1e-6)

# the near field's lobes
N_LOBES = pulsed_module._N_LOBES

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


@pytest.mark.parametrize("knee", [0.0, -0.0, -1.0, math.nan])
def test_clamp_refuses_a_knee_that_is_not_positive(knee):
    with pytest.raises(ValueError, match="knee frequency must be positive"):
        clamp_to_shot_below(Spectrum.flat(1.0), knee)


def readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def test_the_clamp_does_not_write_the_spectrum_it_wraps():
    # the knee lies inside the band, so both branches of the clamp act; a
    # write to the read-only result would raise
    cfg = default_config()
    band = 1e3 + 2e3 * np.arange(50_000)
    levels = readonly(total_spectrum(cfg.opo, cfg.noise, "minus")(band))
    clamped = clamp_to_shot_below(lambda f: levels, 2e6)(band)
    assert clamped.flags.writeable
    below = band < 2e6
    assert np.any(levels[below] > 1.0) and np.any(levels[below] < 1.0)
    assert clamped[below].tobytes() == np.minimum(levels[below], 1.0).tobytes()
    assert clamped[~below].tobytes() == levels[~below].tobytes()


@pytest.mark.parametrize("result, want", [
    # a wrapped result of another shape than f: a scalar, and a column
    (1.7, [[1.0, 1.7, 1.7]]),
    (np.array([0.4, 1.2, 3.0])[:, None], [[0.4, 0.4, 0.4], [1.0, 1.2, 1.2], [1.0, 3.0, 3.0]]),
])
def test_the_clamp_broadcasts_a_result_against_f(result, want):
    got = clamp_to_shot_below(lambda f: result, 1e5)(np.array([[1e3, 1e5, 1e7]]))
    assert got.shape == np.shape(want)
    assert got.tobytes() == np.array(want).tobytes()


# wrapped values, and what the clamp makes of them below the knee: NaN,
# -inf and -0.0 pass, and only what exceeds 1.0 is capped
LEVELS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0,
          np.nextafter(1.0, 2.0), 3.0, np.finfo(float).max)
CAPPED = (math.nan, 1.0, -math.inf, -0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0,
          1.0, 1.0, 1.0)


def test_the_clamp_keeps_special_spectrum_values():
    # below, at and above the knee of 5e4 Hz; each wrapped result is
    # read-only, and a write would raise
    f = np.array([1e3, 5e4, 1e6])
    for level, capped in zip(LEVELS, CAPPED):
        got = clamp_to_shot_below(lambda f, r=readonly(level): r, 5e4)(f)
        assert got.tobytes() == np.array([capped, level, level]).tobytes(), level
        scalar = clamp_to_shot_below(lambda f: level, 5e4)(1e3)
        assert type(scalar) is float and np.array(scalar).tobytes() == np.array(capped).tobytes()
    column = clamp_to_shot_below(lambda f: readonly(LEVELS)[:, None], 5e4)(f)
    assert column.tobytes() == np.array([CAPPED, LEVELS, LEVELS]).T.tobytes()
    for at, want in ((1e3, CAPPED), (5e4, LEVELS), (1e6, LEVELS)):
        got = clamp_to_shot_below(lambda f: readonly(LEVELS), 5e4)(np.full(len(LEVELS), at))
        assert got.tobytes() == np.array(want).tobytes()


def test_window_validation():
    for bad in (0.0, -0.0, -1e-6, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"duration must lie in \(0, inf\)"):
            PulsedWindow(duration=bad)
    # the near field ends at N / T, which must be a float
    # a numpy float too, which is refused without an overflow warning
    for short in (5e-324, float(N_LOBES / np.finfo(float).max) * (1 - 1e-15),
                  np.float64(5e-324)):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="too short"):
            warnings.simplefilter("error")
            PulsedWindow(duration=short)
    for t in (N_LOBES / np.finfo(float).max * (1 + 1e-15), 1.0, np.finfo(float).max):
        PulsedWindow(duration=t)


# far-field quantities beyond the float range are inf, without a warning: at
# T = 1e-304 s, x = 2.5e306 Hz and the nodes nearest w = 0 lie above the
# largest float, where EXAMPLE takes its tail level; at T = 0.1 s a jump at
# 1e308 Hz lies at 1e307 lobes, where its closed-form term and remainder are 0
@pytest.mark.parametrize("spectrum, t, ratio", [
    (EXAMPLE, 1e-304, 10**-0.3),
    (PiecewiseSpectrum(breakpoints=(1e308,), values=(1.0,), tail_value=0.5), 0.1, 1.0),
], ids=["tiny-window", "far-jump"])
def test_far_field_beyond_the_float_range(spectrum, t, ratio):
    value = pulsed_variance(spectrum, PulsedWindow(duration=t))
    assert value / (t / 2) == pytest.approx(ratio, rel=1e-6)


# closed-form oracles over windows from 1 ns to 10 ms; the engine switches to
# the lobe-averaged far field at N / T, so the long windows put the whole
# OPO Lorentzian into it
ORACLE_WINDOWS = np.logspace(-9, -2, 15)


def _assert_matches(spectrum, t, exact):
    value, err = pulsed_variance_with_error(spectrum, PulsedWindow(duration=t))
    assert abs(value - exact) <= 1e-7 * exact
    assert abs(value - exact) <= err


def _opo_wiener_khinchin(t):
    """sigma^2 = 2 int_0^T (T - tau) R(tau) dtau for the OPO's Lorentzian, in
    30-digit arithmetic."""
    opo = OpoParams()
    with mpmath.workdps(30):
        eta, sig, fc = (mpmath.mpf(v) for v in (opo.escape_efficiency, opo.pump_ratio,
                                                 opo.cavity_hwhm))
        k = 2 * mpmath.pi * fc * (1 + sig)
        return t / 2 - (4 * eta * sig * mpmath.pi * fc / (1 + sig)) * (
            t / k + mpmath.expm1(-k * t) / k**2)


# and on windows of 0.1 to 10 s, where x = N / T lies far below the OPO
# Lorentzian, which the graded far field resolves
@pytest.mark.parametrize("t", [*ORACLE_WINDOWS, 0.1, 1.0, 10.0])
def test_opo_term_matches_wiener_khinchin_closed_form(t):
    opo = OpoParams()
    exact = float(_opo_wiener_khinchin(t))
    _assert_matches(Spectrum(lambda f: squeezed_variance(opo, f)), t, exact)


def _sine_integral_closed_form(spec, t):
    """Band by band through int_0^X sin^2(u) / u^2 du = Si(2X) - sin^2(X) / X,
    in 30-digit arithmetic, where X = pi b T is finite for every float b."""
    with mpmath.workdps(30):
        def band(b):
            x = mpmath.pi * mpmath.mpf(b) * t
            return mpmath.si(2 * x) - mpmath.sin(x) ** 2 / x

        upto = [band(b) for b in spec.breakpoints] + [mpmath.pi / 2]
        levels = spec.values + (spec.tail_value,)
        return float(t / mpmath.pi * sum(v * (hi - lo)
                                         for v, lo, hi in zip(levels, [0] + upto, upto)))


@pytest.mark.parametrize("t", ORACLE_WINDOWS)
def test_piecewise_bands_match_sine_integral_closed_form(t):
    # the --example spectrum, and one whose third breakpoint lies beyond
    # N / T, off the sinc zeros, where the jump's closed-form term corrects
    # the lobe average
    three_bands = PiecewiseSpectrum(
        breakpoints=sorted((50e3, 2e6, 1000.25 / t)), values=(1.0, 0.5, 0.8),
        tail_value=0.6,
    )
    for spec in (EXAMPLE, three_bands):
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


class _Counting:
    """A spectrum that records the points of every call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def __getattr__(self, name):  # breakpoints, when the inner spectrum has them
        return getattr(self.inner, name)

    def __call__(self, f):
        self.calls.append(np.array(f, dtype=float, ndmin=1))
        return self.inner(f)


def outcome(spectrum, window):
    """float.hex of (value, error), or the type and message of the error,
    with the number of spectrum calls and a digest of their frequencies in
    order: a tie broken another way bisects another panel, whose nodes
    show, even where the final table and so the result come out the same."""
    counting = _Counting(spectrum)
    try:
        result = tuple(v.hex() for v in pulsed_variance_with_error(counting, window))
    except (ValueError, RuntimeError) as exc:
        result = type(exc).__name__, str(exc)
    return (result, *calls_digest(counting))


def calls_digest(counting):
    """The number of spectrum calls and a digest of their frequencies in
    order."""
    calls = hashlib.sha256(b"".join(c.tobytes() for c in counting.calls)).hexdigest()[:16]
    return len(counting.calls), calls


def _assert_within_its_error(spectrum, window, exact):
    """|value - exact| <= the returned error. A jump beyond x = N / T adds
    its term in closed form, so none is refused."""
    value, err = pulsed_variance_with_error(spectrum, window)
    assert abs(value - exact) <= err


windows = st.floats(1e-8, 1e-3).map(PulsedWindow)


@settings(max_examples=40, deadline=None)
@given(
    windows,
    st.lists(st.floats(1e-3, 3e3), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(0.05, 5.0), min_size=5, max_size=5),
)
@example(PulsedWindow(2.0**-20), [3.5, 7.25, 7.75, 2500.25], [1.0, 0.3, 2.0, 0.5, 0.6])
# a jump of 3.9375 at 1001 lobes, beyond x: its closed-form term brings the
# value onto the sine integral, against an error of 3.3e-10 of it
@example(PulsedWindow(0.0009935658353893498), [1001.0], [0.0625, 1.0, 1.0, 1.0, 4.0])
# a breakpoint at x = N / T in Hz, whose b T rounds above N = 250 lobes: the
# far field starts at S(x), the upper level, so the jump counts only once
@example(PulsedWindow(2.1e-7), [250.0], [1.0, 1.0, 1.0, 1.0, 1e-3])
def test_piecewise_spectra_are_within_their_error_of_the_sine_integral(window, lobes_at, levels):
    # breakpoints placed in lobes (b T): inside and on the edges of
    # near-field lobes and beyond x, where they are far-field panel edges
    breakpoints = tuple(sorted(u / window.duration for u in lobes_at))
    assume(len(set(breakpoints)) == len(breakpoints))
    spec = PiecewiseSpectrum(breakpoints=breakpoints, values=tuple(levels[: len(breakpoints)]),
                             tail_value=levels[-1])
    _assert_within_its_error(spec, window, _sine_integral_closed_form(spec, window.duration))


class _Declared:
    """A piecewise spectrum whose breakpoints attribute is passed on as
    given: in any order, with repeats, as a tuple, a list or an array."""

    def __init__(self, breakpoints):
        self.breakpoints = breakpoints
        edges = sorted(set(np.asarray(breakpoints, dtype=float).tolist()))
        levels = [(1.0, 0.3, 2.0, 0.5, 1.5)[i % 5] for i in range(len(edges))]
        self.inner = PiecewiseSpectrum(tuple(edges), tuple(levels), 0.6)

    def __call__(self, f):
        return self.inner(f)


@settings(max_examples=40, deadline=None)
@given(
    windows,
    st.lists(st.one_of(st.floats(1e-3, 3e3), st.integers(1, 2999).map(float)),
             min_size=1, max_size=6),
)
# in lobes (b T) at T = 2^-20 s, where b T is exact: repeated and unsorted
# breakpoints; two inside one lobe; cuts in adjacent lobes; one on a whole
# lobe beside a cut, one on the edge of the near field, one on a whole lobe
# beyond it and one beyond it twice, whose jump counts once
@example(PulsedWindow(2.0**-20), [7.75, 3.5, 2500.25, 7.75, 3.5, 1500.5])
@example(PulsedWindow(2.0**-20), [3.25, 3.75, 3.5])
@example(PulsedWindow(2.0**-20), [4.5, 3.5, 5.25])
@example(PulsedWindow(2.0**-20), [3.0, 3.5, N_LOBES, 2 * N_LOBES, 2500.25, 2500.25])
# a breakpoint at x = N / T in Hz, whose b T rounds above N = 250 lobes
@example(PulsedWindow(5.5527078968118224e-05), [1.0, 2.0, 250.0])
def test_declared_breakpoints_in_any_container_order_or_repeat(window, lobes_at):
    # a tuple, a list and an array of the same breakpoints give the same
    # bits and spectrum calls, within the returned error of the closed form
    t = window.duration
    declared = [u / t for u in lobes_at]
    outcomes = [outcome(_Declared(container(declared)), window)
                for container in (tuple, list, np.array)]
    assert outcomes[1:] == outcomes[:1] * 2
    spectrum = _Declared(declared)
    _assert_within_its_error(spectrum, window, _sine_integral_closed_form(spectrum.inner, t))


# at T = 10 s, x = 25 Hz: 1e308 Hz lies at b T = 1e309, beyond the float
# range, so at w = 0, beside far breakpoints at 522.5 and 525 lobes
def test_a_breakpoint_beyond_the_float_range_in_lobes():
    spectrum = _Declared((1e308, 52.25, 52.5))
    assert 1e308 * 10.0 == math.inf
    value, err = pulsed_variance_with_error(spectrum, PulsedWindow(10.0))
    assert abs(value - _sine_integral_closed_form(spectrum.inner, 10.0)) <= err


# ------------------------------------- Lorentzians and the clamped chain


def _lorentzian_window(a, b, c, g, t):
    """int_a^b L(nu) sin^2(pi nu T) / (pi nu)^2 dnu for the Lorentzian
    L = g^2 / ((nu - c)^2 + g^2), 0 <= a < b <= inf, in closed form.

    With w = 2 pi T and the pole p = c + i g, L = g Im 1/(nu - p) and
    sin^2(pi nu T) = (1 - cos w nu) / 2, so the integral is g / (2 pi^2)
    times Im int (1 - cos w nu) / (nu^2 (nu - p)) dnu. Partial fractions
    split that into -1/(p nu^2) - 1/(p^2 nu) + 1/(p^2 (nu - p)), whose terms
    integrate through Si and Ci at w nu, and through the exponential integral
    E1 at -+i w (nu - p) (Abramowitz & Stegun 5.1-5.2). The path of
    -i w (nu - p) crosses E1's branch cut, the negative real axis, at nu = c,
    so up to c that antiderivative continues E1's principal branch by
    -2 pi i. At nu = 0 the first two terms take their limits, 0 and
    -gamma - ln w; at inf every term but w Si -> w pi / 2 vanishes.
    """
    with mpmath.workdps(30):
        c, g, w = mpmath.mpf(c), mpmath.mpf(g), 2 * mpmath.pi * t
        p = mpmath.mpc(c, g)

        def antiderivative(nu):
            if nu == math.inf:
                return -(w * mpmath.pi / 2) / p
            nu = mpmath.mpf(nu)
            if nu == 0:
                inv_square, inv = 0, -mpmath.euler - mpmath.log(w)
            else:
                inv_square = -(1 - mpmath.cos(w * nu)) / nu + w * mpmath.si(w * nu)
                inv = mpmath.log(nu) - mpmath.ci(w * nu)
            s = nu - p
            up = -mpmath.e1(-1j * w * s) - (2j * mpmath.pi if nu <= c else 0)
            down = -mpmath.e1(1j * w * s)
            pole = mpmath.log(s) - (mpmath.exp(1j * w * p) * up
                                    + mpmath.exp(-1j * w * p) * down) / 2
            return -inv_square / p + (pole - inv) / p**2

        return g / (2 * mpmath.pi**2) * mpmath.im(antiderivative(b) - antiderivative(a))


def _inverse_square_window(a, b, t):
    """int_a^b nu^-2 sin^2(pi nu T) / (pi nu)^2 dnu, 0 < a < b <= inf, in
    closed form: with y = 2 pi T nu it is 4 pi T^3 int (1 - cos y) / y^4 dy,
    whose antiderivative, by parts, is -(1 - cos y) / (3 y^3)
    - sin y / (6 y^2) - cos y / (6 y) - Si(y) / 6, and -pi / 12 at inf."""
    with mpmath.workdps(30):
        def antiderivative(nu):
            if nu == math.inf:
                return -mpmath.pi / 12
            y = 2 * mpmath.pi * t * mpmath.mpf(nu)
            return (-(1 - mpmath.cos(y)) / (3 * y**3) - mpmath.sin(y) / (6 * y**2)
                    - mpmath.cos(y) / (6 * y) - mpmath.si(y) / 6)

        return 4 * mpmath.pi * t**3 * (antiderivative(b) - antiderivative(a))


@pytest.mark.parametrize("t", ORACLE_WINDOWS)
def test_the_lorentzian_closed_form_gives_wiener_khinchin_on_the_opo_term(t):
    # S = 1 - a g^2 / (g^2 + nu^2), with a = 4 eta sig / (1 + sig)^2 and
    # g = cavity_hwhm (1 + sig): the Lorentzian at c = 0, from nu = 0
    opo = OpoParams()
    with mpmath.workdps(30):
        sig = mpmath.mpf(opo.pump_ratio)
        amp = 4 * opo.escape_efficiency * sig / (1 + sig) ** 2
        got = t / 2 - amp * _lorentzian_window(0, math.inf, 0, opo.cavity_hwhm * (1 + sig), t)
        assert abs(got / _opo_wiener_khinchin(t) - 1) < 1e-25


class _PeakInACutLobe:
    """A narrow Lorentzian peak beside a declared breakpoint, inside the
    near-field lobe it cuts or in the far field it splits, so the bisected
    panels have edges that are not dyadic."""

    def __init__(self, t, lobes_at, peak_at, width):
        self.breakpoints = (lobes_at / t,)
        self.peak, self.width = peak_at / t, width / t

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        return 1.0 + 50.0 / (1.0 + ((f - self.peak) / self.width) ** 2)


# in lobes: the breakpoint, the peak and its half-width
@pytest.mark.parametrize("lobes_at, peak_at, width", [
    (0.3137, 0.2, 0.01), (5.71, 5.9, 0.01), (1234.567, 1500.3, 5.0),
])
def test_a_peak_beside_a_cut_or_far_breakpoint_matches_the_lorentzian_closed_form(
        lobes_at, peak_at, width):
    t = 1e-6
    spectrum = _Counting(_PeakInACutLobe(t, lobes_at, peak_at, width))
    value, err = pulsed_variance_with_error(spectrum, PulsedWindow(t))
    exact = t / 2 + 50 * float(_lorentzian_window(0, math.inf, spectrum.peak, spectrum.width, t))
    assert abs(value - exact) <= err
    assert len(spectrum.calls) > 1  # the one call, then bisections


class _ReadOnly:
    """The inner spectrum with every result marked read-only."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):  # breakpoints
        return getattr(self.inner, name)

    def __call__(self, f):
        out = self.inner(f)
        out.flags.writeable = False
        return out


def test_the_engine_never_writes_a_spectrum_result():
    # a peak in a cut lobe, bisected, and a far-field breakpoint: the one
    # spectrum call serves both sides of the generic panels, and bisections
    # call it again
    t = 1e-6
    spectrum = _PeakInACutLobe(t, 0.3137, 0.2, 0.01)
    spectrum.breakpoints += (1234.567 / t,)
    want = outcome(spectrum, PulsedWindow(t))
    got = outcome(_ReadOnly(spectrum), PulsedWindow(t))
    assert isinstance(got[0][0], str) and got == want
    assert got[1] > 1  # the one call, then bisections


@functools.cache
def _clamped_chain(mode, knee):
    """The default chain's dark-corrected detected spectrum of one mode,
    D = 1 + eta_det X with X = -a g^2 / (g^2 + nu^2) (the OPO term, a and
    g as in the Wiener-Khinchin test) + b h^2 / ((nu - c)^2 + h^2) (the
    relaxation peak) + lf / nu^2 (the low-frequency term, lf = lf_amp
    lf_knee^2), clamped to 1 below the knee.

    Returns eta_det, the terms (a, g, b, c, h, lf), the crossings of D = 1
    below the knee and the pieces on which the clamped spectrum is D: those
    of (0, knee) between crossings where X < 0, and [knee, inf). The
    crossings are the real roots of X's numerator over the common
    denominator nu^2 (g^2 + nu^2) ((nu - c)^2 + h^2), a quartic.
    """
    cfg = default_config()
    opo, noise, det = cfg.opo, cfg.noise, cfg.detection
    assert noise.lf_exponent == 2.0
    with mpmath.workdps(30):
        m = mpmath.mpf
        sig, eta, fc = m(opo.pump_ratio), m(opo.escape_efficiency), m(opo.cavity_hwhm)
        terms = (4 * sig * eta / (1 + sig) ** 2, fc * (1 + sig), m(noise.relax_amp(mode)),
                 m(noise.relax_center), m(noise.relax_fwhm) / 2,
                 m(noise.lf_amp) * m(noise.lf_knee) ** 2)
        a, g, b, c, h, lf = terms

        def x(nu):
            return -a * g**2 / (g**2 + nu**2) + b * h**2 / ((nu - c) ** 2 + h**2) + lf / nu**2

        # the quartic's coefficients, highest power first, from those of
        # g^2 + nu^2 = (1, 0, g^2) and (nu - c)^2 + h^2 = (1, -2c, c^2 + h^2)
        quartic = [-a * g**2 * q + b * h**2 * o + lf * po for q, o, po in zip(
            (1, -2 * c, c**2 + h**2, 0, 0), (1, 0, g**2, 0, 0),
            (1, -2 * c, c**2 + h**2 + g**2, -2 * c * g**2, g**2 * (c**2 + h**2)))]
        roots = mpmath.polyroots(quartic, maxsteps=200, extraprec=60)
        crossings = sorted(mpmath.re(r) for r in roots
                           if abs(mpmath.im(r)) < 1e-20 * abs(r) and 0 < mpmath.re(r) < knee)
        edges = [m(0), *crossings, m(knee)]
        pieces = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if x((lo + hi) / 2) < 0]
        eta_det = m(det.quantum_efficiency) * m(det.visibility) ** 2
        return eta_det, terms, crossings, pieces + [(m(knee), math.inf)]


def clamped_chain_window_variance(mode, knee, t):
    """The window variance of the clamped chain, piece by piece: T / 2 for
    the 1 everywhere, plus eta_det times each term of X over the pieces
    where the clamped spectrum is D."""
    eta_det, (a, g, b, c, h, lf), _, pieces = _clamped_chain(mode, knee)
    with mpmath.workdps(30):
        total = mpmath.mpf(t) / 2
        for lo, hi in pieces:
            total += eta_det * (-a * _lorentzian_window(lo, hi, 0, g, t)
                                + b * _lorentzian_window(lo, hi, c, h, t)
                                + lf * _inverse_square_window(lo, hi, t))
        return float(total)


class _DeclaredKnee:
    """The clamped chain of one mode, declaring where it is not smooth: the
    knee, where it jumps, and the crossings of 1 below it, where it kinks."""

    def __init__(self, mode, knee):
        cfg = default_config()
        detected = observe_corrected(total_spectrum(cfg.opo, cfg.noise, mode), cfg.detection)
        self.inner = clamp_to_shot_below(detected, knee)
        self.breakpoints = (*(float(x) for x in _clamped_chain(mode, knee)[2]), knee)

    def __call__(self, f):
        return self.inner(f)


SWEEP_WINDOWS = np.logspace(-8, -3, 11)

# the closed form at the default knee, 50 kHz, on SWEEP_WINDOWS: the clamped
# rows of the benchmark's pulsed sweep
CLAMPED_CHAIN_TABLE = {
    "minus": (
        2.414513173810068e-09, 6.1965561391715895e-09, 1.9494437630974803e-08,
        7.097069253774332e-08, 2.3133567447553505e-07, 1.0465970957386826e-06,
        4.576506336944697e-06, 1.538265289554161e-05, 4.955857079705259e-05,
        0.00015767370109344246, 0.000499559876331349,
    ),
    "plus": (
        2.404857986809776e-09, 6.100427500484225e-09, 1.856618535905977e-08,
        6.423203217218622e-08, 2.289958300896515e-07, 1.0406163170450988e-06,
        4.569618994894424e-06, 1.5375803230614587e-05, 4.955166935425669e-05,
        0.0001576668127769807, 0.0004995529715983775,
    ),
}


def test_the_clamped_chain_closed_form_gives_its_table():
    for mode, table in CLAMPED_CHAIN_TABLE.items():
        got = [clamped_chain_window_variance(mode, 50e3, t) for t in SWEEP_WINDOWS]
        np.testing.assert_allclose(got, table, rtol=1e-15, atol=0)
    # the engine with its knee declared lands here too; the benchmark's
    # frozen 6.423212008e-08 is 1.37e-6 above it
    assert f"{CLAMPED_CHAIN_TABLE['plus'][3]:.7e}" == "6.4232032e-08"


# the windows, 10^log_t s, where the clamp's undeclared jump at the knee
# moves the engine by more than its returned error
HIDDEN_KNEE = {("minus", -6.5), ("minus", -5.5), ("minus", -3.5), ("plus", -6.5)}


@pytest.mark.parametrize("mode, i", [
    pytest.param(mode, i, id=f"{mode}-T1e{log_t:g}", marks=pytest.mark.xfail(
        (mode, log_t) in HIDDEN_KNEE, strict=True,
        reason="ROADMAP item 1: clamp_to_shot_below does not declare its knee"))
    for mode in CLAMPED_CHAIN_TABLE for i, log_t in enumerate(np.linspace(-8, -3, 11).tolist())
])
def test_the_clamped_chain_is_within_its_error_of_the_closed_form(mode, i):
    value, err = pulsed_variance_with_error(sweep_spectra()[mode], PulsedWindow(SWEEP_WINDOWS[i]))
    assert abs(value - CLAMPED_CHAIN_TABLE[mode][i]) <= err


# the default knee; one below it, where the clamp jumps by more; and one
# above the crossing of 1 near 50.1 kHz, where the clamp kinks at the crossing
@pytest.mark.parametrize("mode", CLAMPED_CHAIN_TABLE)
@pytest.mark.parametrize("knee, crossings", [(20e3, 0), (50e3, 0), (100e3, 1)])
def test_the_clamped_chain_declaring_its_knee_is_within_its_error(mode, knee, crossings):
    spectrum = _DeclaredKnee(mode, knee)
    assert len(spectrum.breakpoints) == 1 + crossings
    missed = []
    for t in SWEEP_WINDOWS:
        value, err = pulsed_variance_with_error(spectrum, PulsedWindow(t))
        exact = clamped_chain_window_variance(mode, knee, t)
        if not abs(value - exact) <= err:
            missed.append((t, value, exact, err))
    assert missed == []


def test_sinc2_kernels_match_mpmath():
    def rel_err(got, u, scale=1.0):
        with mpmath.workdps(30):
            x = mpmath.pi * mpmath.mpf(float(u))
            want = (mpmath.sin(x) / x) ** 2 * mpmath.mpf(float(scale))
            return float(abs(mpmath.mpf(float(got)) / want - 1))

    # the table's weights are half the GL weight times sinc^2 at its node;
    # lobe k is column k
    nodes, weights = _lobe_table()
    for k in (0, 1, N_LOBES // 2 - 1, N_LOBES - 1):
        for u, w, gl in zip(nodes[:, k], weights[:, k], _GL_WEIGHTS):
            assert rel_err(w, u, gl / 2) <= 1e-15, (k, u)
    u = np.random.default_rng(7).uniform(0.0, N_LOBES, 500)
    for ui, got in zip(u, _sinc2(u)):
        assert rel_err(got, ui) <= 1e-15, ui


# entries of a product table, and more: numbers of any size, subnormals,
# -0.0, +-inf and NaN
_table_entries = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda m: hnp.arrays(np.float64, (24, m), elements=_table_entries)))
@example(np.full((24, 2), -0.0))
@example(np.array([[1.0, 1e16, -1e16, 3.0] * 6] * 4).T.copy())
def test_lobe_sums_are_numpys_row_sums_of_the_lobe_major_table(product):
    # the engine's sums over a node-major product table, one column per
    # lobe. They must be the sums numpy takes of the GL16 and GL8 parts of
    # each row of the lobe-major table, bit for bit; where a sum is NaN, only
    # that it is (which NaN an add returns depends on the order of its
    # operands)
    with np.errstate(all="ignore"):
        got = _lobe_panels(product)
        rows = np.ascontiguousarray(product.T)
        fine = rows[:, :16].sum(axis=1)
        want = fine, np.abs(fine - rows[:, 16:].sum(axis=1))
    for g, w in zip(got, want):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert g[~nan].tobytes() == w[~nan].tobytes()


def test_gauss_legendre_constants_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = np.hstack((leggauss(16), leggauss(8)))
    assert np.array(_GL_NODES).tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


# float.hex of (value, error) on the windows np.logspace(-8, -3, 11), frozen
# from the engine that sums the panel table in table order and bisects the
# first panel of any tied for the largest error. The clamped-chain rows
# ("minus", "plus") also rest on the rounding of the scaled relaxation
# Lorentzian and the detector response eta S + (1 - eta), and are refrozen
# when ROADMAP item 1 declares the clamp knee as a breakpoint. Every value
# rests on the lobe-table weights, so on np.sin, whose float64 loop numpy
# picks by CPU: these bits (and the breakpoint table below) were frozen with
# numpy 2.4.6 on an x86-64 CPU with AVX512_SKX, where numpy takes the SVML
# loop. Elsewhere the libm loop can differ in the last bits, and a failure
# there is no engine change until the tables, refrozen from this engine on
# that host, differ.
FROZEN_SWEEP = {
    "piecewise": (
        ("0x1.58c18ae8e8568p-29", "0x1.eaf3cb17c6007p-61"),
        ("0x1.1123b825f20dep-27", "0x1.841c423393ed5p-59"),
        ("0x1.b2cd1be86956ap-26", "0x1.32c6cea39f81dp-57"),
        ("0x1.5f0fecdb63d84p-24", "0x1.e4d280ef28777p-56"),
        ("0x1.27c785739ccc6p-22", "0x1.7edcf593a6db8p-54"),
        ("0x1.15dedf91ab100p-20", "0x1.2e4dc893861e2p-52"),
        ("0x1.29aab3247e3d8p-18", "0x1.dde4c9b4295a4p-51"),
        ("0x1.010d2202dcd45p-16", "0x1.7ba4a69d3e3c5p-49"),
        ("0x1.9f3302d8d99bap-15", "0x1.2d7729058ab0bp-47"),
        ("0x1.4a89f5457904bp-13", "0x1.ddcff5a494572p-46"),
        ("0x1.05e1080562c67p-11", "0x1.7a3a289876943p-44"),
    ),
    "flat": (
        ("0x1.5798ee2308c39p-28", "0x1.e9cd4c241f2ebp-60"),
        ("0x1.0fa3389d6eb3fp-26", "0x1.8338f18a71e04p-58"),
        ("0x1.ad7f29abcaf46p-25", "0x1.32204f96937d3p-56"),
        ("0x1.538c06c4ca60fp-23", "0x1.e4072ded0e585p-55"),
        ("0x1.0c6f7a0b5ed8cp-21", "0x1.7ea8637c385c7p-53"),
        ("0x1.a86f0875fcf92p-20", "0x1.2e847cb428f73p-51"),
        ("0x1.4f8b588e368efp-18", "0x1.de527c5b46739p-50"),
        ("0x1.09456549be1bcp-16", "0x1.7a259be133351p-48"),
        ("0x1.a36e2eb1c432bp-15", "0x1.2af38db90c084p-46"),
        ("0x1.4b96be9c2da2bp-13", "0x1.d8af02d980024p-45"),
        ("0x1.0624dd2f1a9fbp-11", "0x1.75b071274f0a5p-43"),
    ),
    "minus": (
        ("0x1.4bd924a19ffc8p-29", "0x1.c676eaf4451abp-51"),
        ("0x1.a9d2f4ae9f0bfp-28", "0x1.39be8135e469fp-49"),
        ("0x1.4ee971c9e056cp-26", "0x1.0d967f59f624cp-49"),
        ("0x1.30d127163a5fap-24", "0x1.85a261c4176a9p-45"),
        ("0x1.f0ca15f8b4ea2p-23", "0x1.e9eb346dc682bp-43"),
        ("0x1.18f18be4d2ac5p-20", "0x1.ac71fe2407634p-41"),
        ("0x1.331fc7ba4f1fdp-18", "0x1.58178ca7683eep-49"),
        ("0x1.0213f135338b0p-16", "0x1.038f532193571p-36"),
        ("0x1.9fba386c75cdep-15", "0x1.9211e37ee56f9p-48"),
        ("0x1.4aaa6c2146190p-13", "0x1.9ca62cb70a5b1p-40"),
        ("0x1.05e9caa6530cap-11", "0x1.e0e7e8f59f479p-37"),
    ),
    "plus": (
        ("0x1.4a856da559578p-29", "0x1.5aff9ee197969p-52"),
        ("0x1.a337d93433671p-28", "0x1.8d76f197fb065p-48"),
        ("0x1.3ef6fdefd0d17p-26", "0x1.f4f6a5955bb10p-47"),
        ("0x1.13dff681453a2p-24", "0x1.9e8946c791fbfp-45"),
        ("0x1.ebc3c6ee875ccp-23", "0x1.53625652a3be0p-43"),
        ("0x1.17569ae134aeap-20", "0x1.7562d5a570501p-41"),
        ("0x1.32a974e089497p-18", "0x1.94773fe247389p-50"),
        ("0x1.01f68fc815bf0p-16", "0x1.0bf0636181ae0p-38"),
        ("0x1.9fab6650bb7cfp-15", "0x1.9134e2e1143e0p-48"),
        ("0x1.4aa6b9b2474b3p-13", "0x1.74597252642a2p-40"),
        ("0x1.05e8dd67b3b5fp-11", "0x1.933a3d03c9a91p-38"),
    ),
    "opo": (
        ("0x1.1e1376bedbe4bp-29", "0x1.cf6cbc2ec14fap-55"),
        ("0x1.498dc6f0619a1p-28", "0x1.84711ffd8e796p-58"),
        ("0x1.caa13035f6359p-27", "0x1.305d9094d12f0p-56"),
        ("0x1.5af7e78e994d2p-25", "0x1.ddf7bbdd628b1p-55"),
        ("0x1.0e6668f7c0e3fp-23", "0x1.66a8c0cd6fe3dp-53"),
        ("0x1.a996b6dbbc42fp-22", "0x1.8ff58ffffadfap-52"),
        ("0x1.4ff8389052652p-20", "0x1.3da1b5225515ap-51"),
        ("0x1.097c3fa110294p-18", "0x1.881f258ae6b0dp-50"),
        ("0x1.a3b54d606c51ap-17", "0x1.2c3a7b6d31372p-48"),
        ("0x1.4bcb11343b555p-15", "0x1.d92389aacc67bp-47"),
        ("0x1.064d40c6faa40p-13", "0x1.75ece774a664cp-45"),
    ),
}


@pytest.mark.parametrize("name", FROZEN_SWEEP)
def test_sweep_values_and_errors_are_frozen_bit_for_bit(name):
    spectrum = sweep_spectra()[name]
    got = [
        tuple(v.hex() for v in pulsed_variance_with_error(spectrum, PulsedWindow(t)))
        for t in np.logspace(-8, -3, 11)
    ]
    assert got == list(FROZEN_SWEEP[name])


# calls_digest() over the 11 windows of each sweep spectrum, frozen like
# FROZEN_SWEEP: a panel bisected in another order or at other nodes changes
# the digest even where the bits come out the same. The flat, --example and
# OPO spectra take no bisection, 1 call per window, and flat and OPO are
# called at the same frequencies
FROZEN_SWEEP_CALLS = {
    "piecewise": (11, "a9ebdb6d7d9b8fd2"),
    "flat": (11, "c9bb478adb484b64"),
    "minus": (42, "cdfd2bae10a1f4e2"),
    "plus": (41, "490fe788abf8c50d"),
    "opo": (11, "c9bb478adb484b64"),
}


@pytest.mark.parametrize("name", FROZEN_SWEEP_CALLS)
def test_sweep_points_call_the_spectrum_as_frozen(name):
    counting = _Counting(sweep_spectra()[name])
    for t in SWEEP_WINDOWS:
        pulsed_variance_with_error(counting, PulsedWindow(t))
    assert calls_digest(counting) == FROZEN_SWEEP_CALLS[name]


# one breakpoint, in lobes (b T) at T = 2^-20 s, where b T is exact: inside a
# lobe, on a lobe edge, and beyond x = N / T; frozen like FROZEN_SWEEP
FROZEN_BREAKPOINTS = {
    3.5: ("0x1.fa0c1d19d4ff2p-22", "0x1.b7421b54a3067p-54"),
    3.0: ("0x1.f91ef07d747c8p-22", "0x1.b76c9ae4a3067p-54"),
    2500.25: ("0x1.fffde00e49431p-22", "0x1.6cee4e8053328p-53"),
}


@pytest.mark.parametrize("lobes_at", FROZEN_BREAKPOINTS)
def test_breakpoint_values_and_errors_are_frozen_bit_for_bit(lobes_at):
    t = 2.0**-20
    spec = PiecewiseSpectrum(breakpoints=(lobes_at / t,), values=(1.0,), tail_value=0.6)
    got = pulsed_variance_with_error(spec, PulsedWindow(duration=t))
    assert tuple(v.hex() for v in got) == FROZEN_BREAKPOINTS[lobes_at]


def _square_wave(period):
    """1 and 2 in turn, switching every 1 / (2 period) Hz, at undeclared
    jumps."""
    return Spectrum(lambda f: 1.5 + 0.5 * np.sign(np.sin(2 * np.pi * np.asarray(f) * period)))


# outcome() of square waves, frozen like FROZEN_SWEEP. A period of 1e-7 s or
# 5e-9 s gives jumps at whole fractions of a lobe, where bisections leave two
# to five panels with one error, and converges; 3.3e-6 s, the refinement-cap
# test's wave, runs into the cap, with its exact message. A tie goes to the
# first of the tied rows in the table; one broken another way bisects
# another panel, whose nodes change the digest of the spectrum calls even
# where the result comes out the same
FROZEN_TIES = {
    (1e-7, 1e-6): (("0x1.0a8e1c4934d64p-20", "0x1.173fa76e5eb30p-40"), 476, "5f0faf7ff4d51610"),
    (5e-9, 1e-7): (("0x1.abfd46941a8d8p-24", "0x1.c0a05f6b102eep-44"), 282, "a9edcdffaad19ef8"),
    (3.3e-6, 1e-6): (
        ("RuntimeError",
         "window-variance quadrature did not reach the requested tolerance in 4270 panels; "
         "the largest error left is in the far field: 8.42e-12 against a variance of "
         "7.88e-07; if the spectrum diverges at low frequency, clamp it (e.g. with "
         "clamp_to_shot_below) to model a feedback-stabilized source"),
        1393, "66fd51af5a79ee24"),
}


@pytest.mark.parametrize("period, t", FROZEN_TIES)
def test_ties_are_broken_as_frozen(period, t):
    assert outcome(_square_wave(period), PulsedWindow(t)) == FROZEN_TIES[period, t]


def _square_wave_closed_form(period, t):
    """The square wave's window variance band by band, as in
    _sine_integral_closed_form: 1.5 T / 2 for its mean, and half the
    alternating sum of the bands' Si terms, which mpmath's nsum accelerates.
    Its bands are t / (2 period) lobes wide."""
    with mpmath.workdps(30):
        lobes = mpmath.mpf(t) / (2 * mpmath.mpf(period))

        def upto(k):
            x = mpmath.pi * lobes * k
            return mpmath.si(2 * x) - mpmath.sin(x) ** 2 / x if k else mpmath.mpf(0)

        alternating = mpmath.nsum(lambda k: (-1) ** int(k) * (upto(k + 1) - upto(k)),
                                  [0, mpmath.inf])
        return float(t / mpmath.pi * (mpmath.mpf(1.5) * mpmath.pi / 2 + alternating / 2))


# the converging rows of FROZEN_TIES, whose ties the first-row rule breaks,
# judged by accuracy as well as by their bits
@pytest.mark.parametrize("period, t", [(1e-7, 1e-6), (5e-9, 1e-7)])
def test_ties_broken_by_the_first_row_converge_within_their_error(period, t):
    value, err = pulsed_variance_with_error(_square_wave(period), PulsedWindow(t))
    assert abs(value - _square_wave_closed_form(period, t)) <= err


def test_refinement_cap_names_the_largest_error_source():
    # a square wave with undeclared jumps every 0.15 lobes: each jump needs
    # its own run of bisections, more than the refinement budget allows. The
    # far field beyond 250 lobes holds most of them, and at the cap its
    # error left (8.4e-12) exceeds the near field's (6.1e-12)
    with pytest.raises(RuntimeError, match=r"panels.*far field.*clamp"):
        pulsed_variance(_square_wave(3.3e-6), T_1US)


def test_a_far_jump_is_added_in_closed_form_without_bisection():
    # a jump of 3.9375 at 1001 lobes, beyond x: the lobe average alone
    # misses it by 3.2e-10 of the variance, and with the closed-form terms
    # the value lands on the sine integral, inside its error of 3.3e-10
    spectrum = PiecewiseSpectrum((1007482.3070055916,), (0.0625,), 4.0)
    counting = _Counting(spectrum)
    window = PulsedWindow(0.0009935658353893498)
    value, err = pulsed_variance_with_error(counting, window)
    exact = _sine_integral_closed_form(spectrum, window.duration)
    assert exact == pytest.approx(3.12469269696423e-05, rel=1e-14)
    assert abs(value - exact) <= min(err, 1e-9 * exact)
    assert len(counting.calls) == 1  # the one call, lobe table included


# spectra built so that the lobe-average term alone exceeds the tolerance, in
# lobes (b T) at T = 2^-20 s: a level of 1 from x to 1.01 x over 1e-9
# elsewhere, whose smooth far-field term S(x) T / (4 pi^4 N^3) is 8e-5 of the
# variance; and a spike of 1e20 one float wide at 600 lobes, whose two jumps'
# closed-form terms nearly cancel but whose remainder bounds add
@pytest.mark.parametrize("breakpoints, values, tail, largest", [
    ((N_LOBES, 1.01 * N_LOBES), (1e-9, 1.0), 1e-9, "the smooth far field"),
    ((600.0, math.nextafter(600.0, math.inf)), (1.0, 1e20), 1.0,
     "the jump at 6.29146e+08 Hz (600 lobes)"),
], ids=["smooth", "spike"])
def test_a_lobe_average_no_bisection_can_help_is_refused_before_any(
        breakpoints, values, tail, largest):
    t = 2.0**-20
    counting = _Counting(PiecewiseSpectrum(tuple(u / t for u in breakpoints), values, tail))
    with pytest.raises(RuntimeError) as exc:
        pulsed_variance_with_error(counting, PulsedWindow(t))
    message = str(exc.value)
    assert message.startswith(
        "window-variance quadrature cannot reach the requested tolerance: the lobe average "
        f"beyond {N_LOBES / t:.6g} Hz drops ")
    assert message.endswith(f", and no refinement reduces it; its largest term is {largest}")
    assert len(counting.calls) == 1  # no bisection


def _far_jump_closed_form(a):
    """C(a) = -(cos y / y - (pi/2 - Si(y))) / pi at y = 2 pi a, where pi/2
    and Si(y) cancel to cos y / y, which cancels to as little as 1 / y^3:
    with 30 digits beyond that."""
    with mpmath.workdps(40 + 3 * math.ceil(math.log10(2 * math.pi * a))):
        y = 2 * mpmath.pi * mpmath.mpf(a)
        return -(mpmath.cos(y) / y - mpmath.pi / 2 + mpmath.si(y)) / mpmath.pi


def test_far_jump_series_is_within_its_remainder_of_the_closed_form():
    # 100 points a >= N in lobes: the edge of the near field and just above
    # it, a half lobe beyond, whole lobes (where the series' even terms
    # vanish), 2^53 + 2 (whole, where a float has no fraction) and near
    # 1e300; then 30 whole lobes, 30 log-uniform in [N, 1e6) and 30 in
    # [1e6, 1e300). The series is exact but for its remainder, which the
    # returned bound covers, and the rounding of its terms, below 4 eps of
    # 1 / (pi y^2) or, where they underflow, a few of the least subnormals
    rng = np.random.default_rng(17)
    points = [
        float(N_LOBES), math.nextafter(N_LOBES, math.inf), N_LOBES + 0.5, N_LOBES + 1.0,
        2.0 * N_LOBES, 1e5 + 0.25, 1e6, 2.0**53 + 2, 1e300, math.nextafter(1e300, 0.0),
        *rng.integers(N_LOBES, 100 * N_LOBES, 30).astype(float),
        *(N_LOBES * 10 ** rng.uniform(0, math.log10(1e6 / N_LOBES), 30)),
        *(10 ** rng.uniform(6, 300, 30)),
    ]
    assert len(points) == 100
    for a in points:
        got, remainder = pulsed_module._far_jump(a)
        scale = 1 / (mpmath.pi * (2 * mpmath.pi * a) ** 2)
        miss = abs(mpmath.mpf(got) - _far_jump_closed_form(a))
        assert miss <= remainder + 4 * np.finfo(float).eps * scale + 4 * 5e-324, a


@pytest.mark.parametrize("a", [math.inf, float(np.finfo(float).max), 3e307])
def test_far_jump_beyond_the_float_range_is_zero(a):
    # 2 pi a overflows, or its square would: the terms are 0, and so is
    # their bound
    assert pulsed_module._far_jump(a) == (0.0, 0.0)


@pytest.mark.parametrize("spectrum, far_bp", [
    (Spectrum.flat(1.0), ()),
    # a breakpoint inside lobe 0 and one at 2000.25 lobes, beyond x
    (PiecewiseSpectrum(breakpoints=(50e3, 2.00025e9), values=(1.0, 0.5), tail_value=0.7),
     (2.00025e9,)),
])
def test_one_spectrum_call_without_bisection(spectrum, far_bp):
    counting = _Counting(spectrum)
    pulsed_variance_with_error(counting, T_1US)
    # no refinement: one call, whose first points are the far-field
    # breakpoints, the floats just below them, then x, and whose last are
    # the 24 x N nodes of the lobe table, row by row
    assert len(counting.calls) == 1
    (points,) = counting.calls
    lead = np.concatenate((far_bp, np.nextafter(far_bp, 0.0), [N_LOBES / T_1US.duration]))
    assert points[: lead.size].tobytes() == lead.tobytes()
    table = (_lobe_table()[0] / T_1US.duration).ravel()
    assert points[points.size - table.size :].tobytes() == table.tobytes()


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
    (N_LOBES / T_1US.duration, math.nan, "unbounded"),  # seen only at x
])
def test_points_outside_the_panels_are_checked(at, level, message):
    with pytest.raises(ValueError, match=message):
        pulsed_variance(_Spiked(at, level), T_1US)
