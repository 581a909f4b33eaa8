import dataclasses
import hashlib
import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from sqzsim import (
    ClassicalNoiseConfig,
    DetectionParams,
    OpoParams,
    PiecewiseSpectrum,
    Spectrum,
    TabulatedSpectrum,
    antisqueezed_variance,
    clamp_to_shot_below,
    excess_noise,
    from_db,
    observe,
    observe_corrected,
    squeezed_variance,
    to_db,
    total_spectrum,
)
from sqzsim.classical_noise import MODES
from sqzsim.opo import _check_freq
from sqzsim.pulsed import _checked
from sqzsim.spectra import elementwise


def test_flat_scalar_and_array():
    s = Spectrum.flat(0.5)
    assert s(1e6) == 0.5
    assert isinstance(s(1e6), float)
    assert_allclose(s(np.array([1.0, 2.0, 3.0])), 0.5)


def test_tabulated_interpolates_and_clamps():
    t = TabulatedSpectrum([1.0, 2.0, 4.0], [10.0, 20.0, 40.0])
    assert t(1.5) == pytest.approx(15.0)
    assert t(3.0) == pytest.approx(30.0)
    assert t(0.1) == 10.0  # clamp below
    assert t(9.0) == 40.0  # clamp above
    assert t.freqs.shape == (3,)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedSpectrum([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedSpectrum([1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        TabulatedSpectrum([3.0], [1.0])


def test_piecewise_segments():
    p = PiecewiseSpectrum(breakpoints=(50e3, 1e6), values=(1.0, 0.5), tail_value=2.0)
    assert p(1e3) == 1.0
    assert p(50e3) == 0.5  # breakpoint belongs to the upper segment
    assert p(999e3) == 0.5
    assert p(1e6) == 2.0
    assert_allclose(p(np.array([1.0, 60e3, 2e6])), [1.0, 0.5, 2.0])
    assert type(p(1e3)) is float and type(p(np.array(1e6))) is float


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseSpectrum(breakpoints=(), values=(), tail_value=1.0)
    with pytest.raises(ValueError):
        PiecewiseSpectrum(breakpoints=(2.0, 1.0), values=(1.0, 1.0), tail_value=1.0)
    with pytest.raises(ValueError):
        PiecewiseSpectrum(breakpoints=(1.0,), values=(0.0,), tail_value=1.0)
    with pytest.raises(ValueError):
        PiecewiseSpectrum(breakpoints=(1.0,), values=(1.0,), tail_value=0.0)
    with pytest.raises(ValueError):
        PiecewiseSpectrum(breakpoints=(1.0,), values=(1.0, 2.0), tail_value=1.0)


def test_piecewise_lookup_arrays_are_built_once_and_are_not_fields():
    p = PiecewiseSpectrum(breakpoints=[50e3, 1e6], values=[1, 0.5], tail_value=2)
    assert [f.name for f in dataclasses.fields(p)] == ["breakpoints", "values", "tail_value"]
    assert repr(p) == ("PiecewiseSpectrum(breakpoints=(50000.0, 1000000.0), values=(1.0, 0.5), "
                       "tail_value=2.0)")
    assert p == PiecewiseSpectrum((50e3, 1e6), (1.0, 0.5), 2.0)
    assert hash(p) == hash(PiecewiseSpectrum((50e3, 1e6), (1.0, 0.5), 2.0))
    # the lookup from the tuples on every call, as it was taken before the
    # arrays were kept: the same segment and bits at and beside each edge
    f = np.array([0.0, 5e-324, *np.nextafter(50e3, [0.0, np.inf]), 50e3,
                  *np.nextafter(1e6, [0.0, np.inf]), 1e6, np.inf])
    want = np.asarray(p.values + (p.tail_value,))[np.searchsorted(p.breakpoints, f, side="right")]
    got = p(f)
    assert got.tobytes() == want.tobytes()
    got[:] = -1.0  # a call returns a fresh array
    assert p(f).tobytes() == want.tobytes()
    # replace builds the arrays anew from its fields
    q = dataclasses.replace(p, values=(3.0, 4.0))
    assert (q(1e3), q(60e3), q(2e6), p(1e3)) == (3.0, 4.0, 2.0, 1.0)


def _scalar_disagreements(fn, xs):
    """How many x give fn(float(x)) other bits than fn(np.array([x]))[0]."""
    scalar = np.array([fn(x) for x in xs.tolist()])
    array = np.array([fn(np.array([x]))[0] for x in xs])
    return int(np.count_nonzero(scalar.view(np.int64) != array.view(np.int64)))


# the code of every wrapper elementwise makes
ELEMENTWISE = elementwise(lambda f: f).__code__


def goes_through_elementwise(obj) -> bool:
    """Whether the function obj, or the call of the spectrum obj, is one that
    elementwise wrapped."""
    call = obj if isinstance(obj, types.FunctionType) else type(obj).__call__
    return call.__code__ is ELEMENTWISE


def test_a_scalar_gets_the_bits_of_a_one_element_array():
    # elementwise evaluates a scalar as a 1-element array, so every map it
    # wraps gives a scalar the array's bits by construction, where numpy's
    # scalar power and the array loop can round apart. So each map is
    # checked to go through it, and a small log-uniform sample over the
    # physical band checks the wiring; the chain digests pin the rule at the
    # special and power-sensitive frequencies (SCALARS)
    rng = np.random.default_rng(0)
    freqs = 10.0 ** rng.uniform(3.0, 8.0, 500)
    opo, noise, det = OpoParams(), ClassicalNoiseConfig(), DetectionParams()
    fns = {
        "squeezed_variance": lambda f: squeezed_variance(opo, f),
        "antisqueezed_variance": lambda f: antisqueezed_variance(opo, f),
        "piecewise": PiecewiseSpectrum((50e3, 1e6), (1.0, 0.5), 0.7),
        "tabulated": TabulatedSpectrum(np.geomspace(1e3, 1e8, 101),
                                       np.linspace(0.3, 2.0, 101) ** 2),
    }
    for mode in ("plus", "minus"):
        total = total_spectrum(opo, noise, mode)
        fns[f"excess_noise {mode}"] = lambda f, mode=mode: excess_noise(noise, f, mode)
        fns[f"total_spectrum {mode}"] = total
        fns[f"observe_corrected {mode}"] = observe_corrected(total, det)
        fns[f"observe {mode}"] = observe(total, det)
        fns[f"clamp_to_shot_below {mode}"] = clamp_to_shot_below(
            observe_corrected(total, det), noise.lf_knee)
    # the functions the lambdas call, the spectra and the dB conversions
    wrapped = [squeezed_variance, antisqueezed_variance, excess_noise, from_db, to_db,
               *(fn for fn in fns.values() if not isinstance(fn, types.FunctionType))]
    assert [fn for fn in wrapped if not goes_through_elementwise(fn)] == []
    db = rng.uniform(-40.0, 40.0, 500)
    counts = {name: _scalar_disagreements(fn, freqs) for name, fn in fns.items()}
    counts["from_db"] = _scalar_disagreements(from_db, db)
    counts["to_db"] = _scalar_disagreements(to_db, from_db(db))
    assert counts == dict.fromkeys(counts, 0)


# ------------------------------------------ the chain maps against mpmath

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


def exact_chain(opo, noise, det, f, mode):
    """Each chain map at f in 200-bit arithmetic, from the closed forms of
    the module docstrings, with the float parameters and f taken exactly."""
    with mpmath.workprec(200):
        m = mpmath.mpf
        f, sig, eta = m(float(f)), m(opo.pump_ratio), m(opo.escape_efficiency)
        x2 = (f / m(opo.cavity_hwhm)) ** 2
        a, b = (1 - sig) ** 2 + x2, (1 + sig) ** 2 + x2
        hw = m(noise.relax_fwhm) / 2
        lorentz = m(noise.relax_amp(mode)) * hw**2 / ((f - m(noise.relax_center)) ** 2 + hw**2)
        lowfreq = m(noise.lf_amp) * (m(noise.lf_knee) / f) ** m(noise.lf_exponent)
        eta_det = m(det.quantum_efficiency) * m(det.visibility) ** 2
        out = {
            "squeezed_variance": eta * (a / b) + (1 - eta),
            "antisqueezed_variance": eta * (b / a) + (1 - eta),
            "excess_noise": lorentz + lowfreq,
        }
        out["total_spectrum"] = out["squeezed_variance"] + out["excess_noise"]
        out["observe_corrected"] = eta_det * out["total_spectrum"] + (1 - eta_det)
        out["observe"] = out["observe_corrected"] + m(det.dark_linear)
        return out


def chain_maps(opo, noise, det, mode):
    total = total_spectrum(opo, noise, mode)
    return {
        "squeezed_variance": lambda f: squeezed_variance(opo, f),
        "antisqueezed_variance": lambda f: antisqueezed_variance(opo, f),
        "excess_noise": lambda f: excess_noise(noise, f, mode),
        "total_spectrum": total,
        "observe_corrected": observe_corrected(total, det),
        "observe": observe(total, det),
    }


def worst_relative_error(opo, noise, det, freqs):
    """The largest |got - exact| / (eps max(|exact|, TINY)) of each map over
    freqs and both modes. Every term of every map is >= 0, so |exact| is the
    sum of the terms' magnitudes, and a forward error bound is relative to
    it; below the smallest normal float TINY, where a result is subnormal,
    the standard rounding model (Higham 2002, sec. 2.1) adds an absolute
    error of up to eps TINY / 2, which no arithmetic avoids."""
    worst = {}
    for mode in ("plus", "minus"):
        got = {name: fn(freqs) for name, fn in chain_maps(opo, noise, det, mode).items()}
        for i, f in enumerate(freqs):
            exact = exact_chain(opo, noise, det, f, mode)
            for name, value in got.items():
                err = abs(mpmath.mpf(float(value[i])) - exact[name])
                err = err / (EPS * max(exact[name], TINY))
                worst[name] = max(worst.get(name, 0.0), float(err))
    return worst


def test_the_chain_at_the_defaults_is_within_4_eps_of_mpmath():
    # measured: at most 2.6 eps, on antisqueezed_variance
    freqs = np.geomspace(1.0, 1e9, 2_000)
    worst = worst_relative_error(OpoParams(), ClassicalNoiseConfig(), DetectionParams(), freqs)
    assert max(worst.values()) <= 4.0, worst


@settings(max_examples=40, deadline=None)
@given(st.tuples(
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
              lf_exponent=st.floats(-4.0, 4.0),
              lf_amp=st.floats(0.0, 2.0)),
    st.builds(DetectionParams,
              quantum_efficiency=st.floats(0.01, 1.0),
              visibility=st.floats(0.01, 1.0),
              dark_noise_db=st.sampled_from([-np.inf, -20.0, -6.0, -0.5])),
))
# a relaxation amplitude at the smallest normal float: the minus mode's
# excess noise at 1 GHz is about 5.6e-322, a subnormal result, which no
# float arithmetic gives to a relative eps
@example((OpoParams(pump_ratio=0.0, cavity_hwhm=1e5, escape_efficiency=1.0),
          ClassicalNoiseConfig(relax_center=1e4, relax_fwhm=1e3, relax_amp_plus=0.0,
                               relax_amp_minus=2.225073858507203e-309, lf_amp=0.0),
          DetectionParams(quantum_efficiency=1.0, visibility=1.0, dark_noise_db=-np.inf)))
def test_the_chain_of_any_config_is_within_a_few_eps_of_mpmath(config):
    # (lf_knee / f) rounds once, and the power multiplies that relative
    # error by |lf_exponent|; measured at most (1 + |p|) eps over 60 configs
    freqs = np.geomspace(1.0, 1e9, 64)
    worst = worst_relative_error(*config, freqs)
    bound = 4.0 + abs(config[1].lf_exponent)
    assert max(worst.values()) <= bound, worst


# ------------------------------------------------- the chain's frozen bits

SPECIAL = (5e-324, 1e154, 1e162, 1e300, np.inf, np.nan)
# with the default parameters numpy's scalar power and the array loop's x*x
# round (f / cavity_hwhm)^2 differently at the first two of these and
# (f - relax_center)^2 at the last two (see elementwise)
POWER_SENSITIVE = (9764694.0, 6406304.0, 55537040.5, 60769785.5)
SCALARS = (1.0, 5e4, 1e6, 3.5e6, *POWER_SENSITIVE, *SPECIAL)
# frequencies whose bits no host's libm can move: the scalars, 1, 1.25 and
# 1.75 times every power of two of the float range, and 1 kHz to 100 MHz in
# steps of 2 kHz
GRID = np.concatenate((
    SCALARS, np.ldexp(np.array([1.0, 1.25, 1.75])[:, None], np.arange(-1074, 1024)).ravel(),
    1e3 + 2e3 * np.arange(50_000)))
GRID.flags.writeable = False

CONFIGS = {
    "defaults": (OpoParams(), ClassicalNoiseConfig(), DetectionParams()),
    "no excess": (OpoParams(), ClassicalNoiseConfig.zero(), DetectionParams()),
}


def frozen_maps(opo, noise, det):
    """Every chain map of both modes, and the feedback clamp of each
    detected mode at the knee."""
    maps = {}
    for mode in ("plus", "minus"):
        for name, fn in chain_maps(opo, noise, det, mode).items():
            maps[name if name.endswith("variance") else f"{name} {mode}"] = fn
        maps[f"clamp_to_shot_below {mode}"] = clamp_to_shot_below(
            maps[f"observe_corrected {mode}"], noise.lf_knee)
    return maps


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


# sha256 of each map's little-endian float64 values on GRID, frozen: a
# deliberate numeric change refreezes these and lists the maps that moved
FROZEN_DIGESTS = {
    "defaults": {
        "squeezed_variance": "f41677d043f06560",
        "antisqueezed_variance": "ee5fb61ffc487be8",
        "excess_noise plus": "4af578f89f02630a",
        "total_spectrum plus": "80eead2a3a2752de",
        "observe_corrected plus": "5a53f57fdf850deb",
        "observe plus": "43f86f8eec579b84",
        "clamp_to_shot_below plus": "e1e6d6ebc5ea6168",
        "excess_noise minus": "2f653506eaf6b4bc",
        "total_spectrum minus": "8afa064bed6cd6e7",
        "observe_corrected minus": "f7b42a348ea15e8c",
        "observe minus": "958155abc8d1d2f2",
        "clamp_to_shot_below minus": "59f2790f8ab9c248",
    },
    # no excess: the total is the squeezed variance, and the clamp acts on
    # nothing, bit for bit
    "no excess": {
        "squeezed_variance": "f41677d043f06560",
        "antisqueezed_variance": "ee5fb61ffc487be8",
        "excess_noise plus": "2cfaebe1b1bf4a05",
        "total_spectrum plus": "f41677d043f06560",
        "observe_corrected plus": "68ae5c7696ad11c7",
        "observe plus": "9730c3c750913480",
        "clamp_to_shot_below plus": "68ae5c7696ad11c7",
        "excess_noise minus": "2cfaebe1b1bf4a05",
        "total_spectrum minus": "f41677d043f06560",
        "observe_corrected minus": "68ae5c7696ad11c7",
        "observe minus": "9730c3c750913480",
        "clamp_to_shot_below minus": "68ae5c7696ad11c7",
    },
}


@pytest.mark.parametrize("config", CONFIGS)
def test_the_chain_maps_keep_their_frozen_bits(config):
    got = {}
    for name, fn in frozen_maps(*CONFIGS[config]).items():
        values = fn(GRID)
        assert values.flags.writeable and values.dtype == float
        assert fn(GRID.copy()).tobytes() == values.tobytes()
        # a scalar, as a float or as a 0-d array, gets the array's bits
        for f, at in zip(SCALARS, values):
            for scalar in (f, np.array(f)):
                value = fn(scalar)
                assert type(value) is float
                assert np.array(value).tobytes() == at.tobytes(), (name, f)
        got[name] = digest(values)
    assert got == FROZEN_DIGESTS[config]


# ------------------------------------------------------------ range checks

NEGATIVE, NOT_POSITIVE = "sideband frequency must be >= 0", "excess noise is defined for f > 0 only"
UNBOUNDED = ("spectrum is unbounded on the integration range; if it diverges at low frequency, "
             "clamp it (e.g. clamp_to_shot_below) to model a feedback-stabilized source")
NEGATIVE_SPECTRUM = "spectrum is negative on the integration range"

# an input, and what each check makes of it: the OPO's f >= 0, the excess
# noise's f > 0, and the pulsed engine's finite spectrum >= 0 (None: taken)
RANGE_CHECKS = [
    (np.empty(0), None, None, None),
    (np.empty((0, 3)), None, None, None),
    (np.array(-0.0), None, NOT_POSITIVE, None),
    (np.array([0.0, 1.0]), None, NOT_POSITIVE, None),
    (np.array([5e-324]), None, None, None),
    (np.array([-5e-324]), NEGATIVE, NOT_POSITIVE, NEGATIVE_SPECTRUM),
    (np.array([[1.0], [-1.0]]), NEGATIVE, NOT_POSITIVE, NEGATIVE_SPECTRUM),
    (np.array([1.0, np.nan]), None, None, UNBOUNDED),
    (np.array([np.nan, -1.0]), NEGATIVE, NOT_POSITIVE, UNBOUNDED),
    (np.array([2.0, np.inf]), None, None, UNBOUNDED),
    (np.array([np.inf, -1.0]), NEGATIVE, NOT_POSITIVE, UNBOUNDED),
    (np.array([-np.inf, 2.0]), NEGATIVE, NOT_POSITIVE, UNBOUNDED),
]


def refusal(fn, *args):
    """The message fn(*args) refuses with, or None if it takes them."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def range_checks(a):
    """What each check makes of the read-only array a."""
    a.flags.writeable = False
    outcomes = (refusal(_check_freq, a),
                *{refusal(excess_noise, ClassicalNoiseConfig(), a, mode) for mode in MODES},
                refusal(_checked(lambda nu: a), None))
    assert len(outcomes) == 3, "the modes' checks differ"
    return outcomes


@pytest.mark.parametrize("a, freq, excess, spectrum", RANGE_CHECKS)
def test_range_checks_take_and_refuse_as_tabled(a, freq, excess, spectrum):
    assert range_checks(a) == (freq, excess, spectrum)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
                  elements=st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0,
                                                      5e-324, -5e-324]),
                                     st.floats(allow_nan=True, allow_infinity=True))))
def test_range_checks_refuse_exactly_the_out_of_range_inputs(a):
    # NaN is no frequency below 0, and no spectrum value is finite but NaN
    want = (NEGATIVE if (a < 0).any() else None,
            NOT_POSITIVE if (a <= 0).any() else None,
            UNBOUNDED if not np.isfinite(a).all() else
            NEGATIVE_SPECTRUM if (a < 0).any() else None)
    assert range_checks(a) == want
