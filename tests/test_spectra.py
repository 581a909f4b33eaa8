import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqzsim import PiecewiseSpectrum, Spectrum, TabulatedSpectrum


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
