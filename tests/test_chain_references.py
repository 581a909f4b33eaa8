"""The in-place spectrum chain, the feedback clamp and the one-pass range
checks against the one-expression forms they replaced, which this module
keeps as references.

Each rewritten map applies the same floating-point operations to each
element in the same order, so its values must match bit for bit, NaN
counted as equal, and it must emit the same warnings. Each check must
reject exactly what the reference rejects, with the same message.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sqzsim import (
    ClassicalNoiseConfig,
    DetectionParams,
    OpoParams,
    Spectrum,
    antisqueezed_variance,
    clamp_to_shot_below,
    excess_noise,
    observe,
    observe_corrected,
    squeezed_variance,
    total_spectrum,
)
from sqzsim.detection import effective_efficiency
from sqzsim.opo import _X_MAX, _check_freq
from sqzsim.pulsed import _checked

# ------------------------------------------------------------- references


def scalar_as_array(ref):
    """ref(obj, f, *args) with a 0-d f evaluated as the 1-element array
    f.reshape(1) and returned as a float: a scalar gets the array's bits."""
    def call(obj, f, *args):
        f = np.asarray(f, dtype=float)
        if f.ndim:
            return ref(obj, f, *args)
        return float(ref(obj, f.reshape(1), *args)[0])

    return call


def ref_check_freq(f):
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("sideband frequency must be >= 0")
    return f


def ref_lorentzian_terms(params, f):
    f_c = params.cavity_hwhm
    x2 = (np.minimum(f, _X_MAX * f_c) / f_c) ** 2
    sig = params.pump_ratio
    return (1.0 - sig) ** 2 + x2, (1.0 + sig) ** 2 + x2


@scalar_as_array
def ref_squeezed_variance(params, f):
    f = ref_check_freq(f)
    a, b = ref_lorentzian_terms(params, f)
    eta = params.escape_efficiency
    return eta * (a / b) + (1.0 - eta)


@scalar_as_array
def ref_antisqueezed_variance(params, f):
    f = ref_check_freq(f)
    a, b = ref_lorentzian_terms(params, f)
    eta = params.escape_efficiency
    return eta * (b / a) + (1.0 - eta)


@scalar_as_array
def ref_excess_noise(config, f, mode):
    amp = config.relax_amp(mode)
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("excess noise is defined for f > 0 only")
    hw = 0.5 * config.relax_fwhm
    with np.errstate(over="ignore", divide="ignore"):
        lorentz = amp * hw**2 / ((f - config.relax_center) ** 2 + hw**2)
        if config.lf_amp == 0:
            # a switched-off term adds nothing, not 0 x inf = NaN where the
            # power law overflows; elsewhere lorentz + 0.0 is lorentz
            return lorentz
        lowfreq = config.lf_amp * (config.lf_knee / f) ** config.lf_exponent
        return lorentz + lowfreq


def ref_total_spectrum(params, config, mode):
    return Spectrum(
        lambda f: ref_squeezed_variance(params, f) + ref_excess_noise(config, f, mode)
    )


def ref_observe_corrected(spectrum, d):
    eta = effective_efficiency(d)
    return Spectrum(lambda f: eta * np.asarray(spectrum(f)) + (1.0 - eta))


def ref_observe(spectrum, d):
    detected, dark = ref_observe_corrected(spectrum, d), d.dark_linear
    return Spectrum(lambda f: detected(f) + dark)


def ref_clamp_to_shot_below(spectrum, knee):
    def clamped(f):
        f = np.asarray(f, dtype=float)
        s = np.asarray(spectrum(f), dtype=float)
        return np.where(f < knee, np.minimum(s, 1.0), s)

    return Spectrum(clamped)


def ref_checked(spectrum):
    def s(nu):
        with np.errstate(over="ignore"):
            out = np.asarray(spectrum(nu), dtype=float)
        if not np.isfinite(out).all():
            raise ValueError(
                "spectrum is unbounded on the integration range; if it diverges "
                "at low frequency, clamp it (e.g. clamp_to_shot_below) to model "
                "a feedback-stabilized source"
            )
        if (out < 0).any():
            raise ValueError("spectrum is negative on the integration range")
        return out

    return s


# ---------------------------------------------------------------- helpers


def outcome(fn, *args):
    """What fn(*args) gives: ("value", result, warnings) or ("raised",
    (type, message), warnings), with every warning recorded in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("value", fn(*args))
        except Exception as exc:
            result = ("raised", (type(exc), str(exc)))
    return (*result, [(w.category, str(w.message)) for w in caught])


def assert_same_outcome(new, ref):
    (kind, got, got_warnings), (ref_kind, want, want_warnings) = new, ref
    assert (kind, got_warnings) == (ref_kind, want_warnings)
    if kind == "raised":
        assert got == want
        return
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


SPECIAL = (5e-324, 1e154, 1e162, 1e300, np.inf, np.nan)
# 10^5 positive frequencies: every decade of the float range, then the
# physical band densely
GRID = np.concatenate((np.geomspace(5e-324, 1e300, 49_994), SPECIAL,
                       np.linspace(1e3, 1e8, 50_000)))
# with the default parameters and glibc's pow, numpy's scalar power and the
# array loop's x*x round (f / cavity_hwhm)^2 differently at the first two of
# these and (f - relax_center)^2 at the last two, so they pin the rule that a
# scalar is evaluated as a 1-element array and gets the array's bits
POWER_SENSITIVE = (9764694.0, 6406304.0, 55537040.5, 60769785.5)
SCALARS = (1.0, 5e4, 1e6, 3.5e6, *POWER_SENSITIVE, *SPECIAL)


def frequency_inputs():
    """Python floats, 0-d arrays, and the grid read-only and writable."""
    yield from SCALARS
    yield from (np.array(v) for v in SCALARS)
    yield readonly(GRID)
    yield GRID.copy()


def assert_matches(new_fn, ref_fn):
    for f in frequency_inputs():
        before = np.array(f, copy=True)
        assert_same_outcome(outcome(new_fn, f), outcome(ref_fn, f))
        assert np.array_equal(np.asarray(f), before, equal_nan=True)


configs = st.tuples(
    st.builds(OpoParams,
              pump_ratio=st.floats(0.0, 0.99),
              cavity_hwhm=st.floats(1e5, 1e9),
              escape_efficiency=st.floats(0.01, 1.0)),
    st.builds(ClassicalNoiseConfig,
              relax_center=st.floats(1e4, 1e8),
              relax_fwhm=st.floats(1e3, 1e7),
              relax_amp_plus=st.floats(0.0, 3.0),
              relax_amp_minus=st.floats(0.0, 3.0),
              lf_knee=st.floats(1e3, 1e6),
              lf_exponent=st.floats(0.5, 4.0),
              lf_amp=st.floats(0.0, 2.0)),
    st.builds(DetectionParams,
              quantum_efficiency=st.floats(0.01, 1.0),
              visibility=st.floats(0.01, 1.0),
              dark_noise_db=st.sampled_from([-np.inf, -20.0, -6.0, -0.5])),
)
DEFAULTS = (OpoParams(), ClassicalNoiseConfig(), DetectionParams())


# ------------------------------------------------------------------ tests


@settings(max_examples=3, deadline=None)
@given(configs)
@example(DEFAULTS)
@example((OpoParams(), ClassicalNoiseConfig.zero(), DetectionParams()))
def test_chain_maps_keep_their_bits(config):
    opo, noise, det = config
    assert_matches(lambda f: squeezed_variance(opo, f),
                   lambda f: ref_squeezed_variance(opo, f))
    assert_matches(lambda f: antisqueezed_variance(opo, f),
                   lambda f: ref_antisqueezed_variance(opo, f))
    for mode in ("plus", "minus"):
        assert_matches(lambda f: excess_noise(noise, f, mode),
                       lambda f: ref_excess_noise(noise, f, mode))
        total, ref_total = total_spectrum(opo, noise, mode), ref_total_spectrum(opo, noise, mode)
        assert_matches(total, ref_total)
        # the detector maps alone, over the same input, and the whole chain
        assert_matches(observe_corrected(total, det), ref_observe_corrected(total, det))
        assert_matches(observe(total, det), ref_observe(total, det))
        assert_matches(observe(total, det), ref_observe(ref_total, det))
        detected = observe_corrected(total, det)
        assert_matches(clamp_to_shot_below(detected, noise.lf_knee),
                       ref_clamp_to_shot_below(detected, noise.lf_knee))


def test_detector_maps_do_not_write_the_spectrum_they_wrap():
    # writing the wrapped spectrum's read-only result would raise
    band = GRID[-50_000:]
    levels = readonly(total_spectrum(OpoParams(), ClassicalNoiseConfig(), "minus")(band))
    for detected in (observe_corrected(lambda f: levels, DetectionParams()),
                     observe(lambda f: levels, DetectionParams())):
        assert detected(band).flags.writeable


def test_the_clamp_does_not_write_the_spectrum_it_wraps():
    # the knee lies inside the band, so both branches of the clamp act; a
    # write to the read-only result would raise
    band = GRID[-50_000:]
    levels = readonly(total_spectrum(OpoParams(), ClassicalNoiseConfig(), "minus")(band))
    clamped = clamp_to_shot_below(lambda f: levels, 2e6)(band)
    assert clamped.flags.writeable
    assert clamped.tobytes() == ref_clamp_to_shot_below(lambda f: levels, 2e6)(band).tobytes()


def test_the_clamp_broadcasts_a_result_as_it_did():
    # a wrapped result of another shape than f: a scalar, and a column
    band = np.array([1e3, 1e5, 1e7])
    for result in (1.7, np.array([0.4, 1.2, 3.0])[:, None]):
        got = clamp_to_shot_below(lambda f: result, 1e5)(band[None, :])
        want = ref_clamp_to_shot_below(lambda f: result, 1e5)(band[None, :])
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


# wrapped values the clamp must pass or cap as the reference does
LEVELS = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0,
          np.nextafter(1.0, 2.0), 3.0, np.finfo(float).max)


def test_the_clamp_keeps_special_spectrum_values():
    # 5e4 is among the scalar inputs, so the frequencies fall below, at and
    # above the knee; each wrapped result is read-only, and a write would raise
    levels = readonly(LEVELS)
    cycled = readonly(np.resize(levels, GRID.shape))
    results = (*LEVELS, levels[:, None], lambda f: cycled[: f.size].reshape(f.shape))
    for result in results:
        spectrum = result if callable(result) else lambda f, r=result: r
        assert_matches(clamp_to_shot_below(spectrum, 5e4),
                       ref_clamp_to_shot_below(spectrum, 5e4))
    assert np.array_equal(levels, LEVELS, equal_nan=True)
    assert np.array_equal(cycled, np.resize(LEVELS, GRID.shape), equal_nan=True)


# every special value the checks branch on, among ordinary ones
values = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 5e-324, -5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                 max_side=6), elements=values)


@settings(max_examples=300, deadline=None)
@given(arrays)
@example(np.empty(0))
@example(np.empty((0, 3)))
@example(np.array(-0.0))
@example(np.array([1.0, np.nan]))
@example(np.array([np.nan, -1.0]))
@example(np.array([np.inf, -1.0]))
def test_checks_reject_exactly_what_they_rejected_before(a):
    a.flags.writeable = False
    assert_same_outcome(outcome(_check_freq, a), outcome(ref_check_freq, a))
    assert_same_outcome(outcome(_checked(lambda nu: a), None),
                        outcome(ref_checked(lambda nu: a), None))
    for mode in ("plus", "minus"):
        assert_same_outcome(outcome(excess_noise, ClassicalNoiseConfig(), a, mode),
                            outcome(ref_excess_noise, ClassicalNoiseConfig(), a, mode))
