import numpy as np
import pytest
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


def _scalar_disagreements(fn, xs):
    """How many x give fn(float(x)) other bits than fn(np.array([x]))[0]."""
    scalar = np.array([fn(x) for x in xs.tolist()])
    array = np.array([fn(np.array([x]))[0] for x in xs])
    return int(np.count_nonzero(scalar.view(np.int64) != array.view(np.int64)))


def test_a_scalar_gets_the_bits_of_a_one_element_array():
    # log-uniform over the physical band; at the default parameters numpy's
    # scalar power rounds differently from the array loop at some of these
    rng = np.random.default_rng(0)
    freqs = 10.0 ** rng.uniform(3.0, 8.0, 20_000)
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
    db = np.random.default_rng(0).uniform(-40.0, 40.0, 20_000)
    counts = {name: _scalar_disagreements(fn, freqs) for name, fn in fns.items()}
    counts["from_db"] = _scalar_disagreements(from_db, db)
    counts["to_db"] = _scalar_disagreements(to_db, from_db(db))
    assert counts == dict.fromkeys(counts, 0)
