"""The parameter classes' domain checks and the float flags' check against
the hand-written checks they replaced, which this module keeps verbatim as
references.

Every field and float flag must accept and refuse the same values as its
reference, with the same exception class (AboveThresholdError included).
Only the wording of a refusal changed, to "<name> must lie in <domain>";
the one exception is a float NaN or inf given to the integer count
n_points, pinned below.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzsim import cli
from sqzsim.classical_noise import ClassicalNoiseConfig
from sqzsim.config import ConfigError
from sqzsim.detection import DetectionParams
from sqzsim.dsp import SweepConfig, TimeSeries, synthesize
from sqzsim.opo import AboveThresholdError, OpoParams
from sqzsim.pulsed import _N_LOBES, PulsedWindow
from sqzsim.spectra import Spectrum

# ------------------------------------------------------------- references


def ref_opo(self):
    if self.pump_ratio >= 1.0:
        raise AboveThresholdError(
            f"pump_ratio must be < 1 below threshold, got {self.pump_ratio}"
        )
    if not 0.0 <= self.pump_ratio < 1.0:
        raise ValueError(f"pump_ratio must lie in [0, 1), got {self.pump_ratio}")
    if not self.cavity_hwhm > 0:
        raise ValueError(f"cavity_hwhm must be positive, got {self.cavity_hwhm}")
    if not 0.0 < self.escape_efficiency <= 1.0:
        raise ValueError(
            f"escape_efficiency must lie in (0, 1], got {self.escape_efficiency}"
        )


def ref_noise(self):
    # every comparison with NaN is false, so NaN fails each check
    for name in ("relax_amp_plus", "relax_amp_minus", "lf_amp"):
        if not 0 <= getattr(self, name) < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
    for name in ("relax_center", "relax_fwhm", "lf_knee"):
        if not 0 < getattr(self, name) < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
    if not -np.inf < self.lf_exponent < np.inf:
        raise ValueError(f"lf_exponent must be finite, got {self.lf_exponent}")
    # excess_noise forms amp * hw^2 in Python floats: hw^2 raises
    # OverflowError from hw ~ 1.34e154, and amp * hw^2 turns inf
    amp = max(1.0, self.relax_amp_plus, self.relax_amp_minus)
    widest = 2 * math.sqrt(sys.float_info.max / amp)
    if not (self.relax_fwhm < widest and amp * (0.5 * self.relax_fwhm) ** 2 < np.inf):
        raise ValueError(
            f"relax_fwhm must be finite and below {widest:.3g}, where relax_amp "
            f"(relax_fwhm/2)^2 overflows, got {self.relax_fwhm}"
        )


def ref_detection(self):
    if not 0.0 < self.quantum_efficiency <= 1.0:
        raise ValueError(
            f"quantum_efficiency must lie in (0, 1], got {self.quantum_efficiency}"
        )
    if not 0.0 < self.visibility <= 1.0:
        raise ValueError(f"visibility must lie in (0, 1], got {self.visibility}")
    if not self.dark_noise_db < 0:
        raise ValueError(
            f"dark_noise_db must be negative (dB below shot), got {self.dark_noise_db}"
        )


def ref_time_series(self):
    # the sample-rate check, also made first by synthesize
    if not self.sample_rate > 0:
        raise ValueError("sample_rate must be positive")


def ref_sweep(self):
    if not 0 < self.start < self.stop < np.inf:
        raise ValueError("need 0 < start < stop, both finite")
    if self.n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not (np.inf > self.rbw >= self.vbw > 0):
        raise ValueError("need rbw >= vbw > 0, both finite")


def ref_window(self):
    if not (np.isfinite(self.duration) and self.duration > 0):
        raise ValueError(f"window duration must be finite and positive, got {self.duration}")
    if not np.isfinite(_N_LOBES / self.duration):
        raise ValueError(
            f"window duration {self.duration} s is too short: the near field "
            f"ends at {_N_LOBES} / T, which overflows"
        )


def ref_finite_positive(flag: str, value: float, what: str) -> float:
    """The value of a float flag, or a ConfigError naming the flag."""
    if not 0 < value < math.inf:
        raise ConfigError(f"key '{flag}': {what} must be finite and positive, got {value}")
    return value


# ------------------------------------------------------------------ setup


def outcome(fn, *args, **kwargs):
    """None if fn accepts, else the class of what it raises."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    return None


def new_time_series(**fields):
    TimeSeries(samples=np.zeros(1), seed=0, **fields)


def new_synthesize(sample_rate):
    # past its sample-rate check synthesize may fail for other reasons (an
    # integer beyond the float range), so only a refusal of the rate counts
    try:
        synthesize(Spectrum.flat(1.0), sample_rate, 2, 0)
    except Exception as exc:  # noqa: BLE001
        if isinstance(exc, ValueError) and str(exc).startswith("sample_rate "):
            return ValueError
    return None


# each class, its reference and its defaults
CLASSES = {
    OpoParams: (ref_opo, OpoParams()),
    ClassicalNoiseConfig: (ref_noise, ClassicalNoiseConfig()),
    DetectionParams: (ref_detection, DetectionParams()),
    SweepConfig: (ref_sweep, SweepConfig()),
    PulsedWindow: (ref_window, PulsedWindow(1e-6)),
    TimeSeries: (ref_time_series, SimpleNamespace(sample_rate=25e6)),
}
NEW = {**{cls: cls for cls in CLASSES}, TimeSeries: new_time_series}
FIELDS = [(cls, name) for cls, (_, defaults) in CLASSES.items()
          for name in vars(defaults)]
FLOAT_FIELDS = [(cls, name) for cls, name in FIELDS if name != "n_points"]
FLAGS = ["--start", "--stop", "--rbw", "--vbw", "--flat", "--sample-rate", "--freq"]
FLAG_DEFAULTS = [300e3, 10e6, 100e3, 300.0, 25e6, 3.5e6]

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5,
           1e308, -1e308]
# n_points is an integer count: JSON and --points give it integers only
COUNTS = [-(10**400), -1, 0, 1, 2, 3, 512, 2**64, 10**400]


def assert_same_outcome(cls, name, value):
    ref, defaults = CLASSES[cls]
    fields = {**vars(defaults), name: value}
    want = outcome(ref, SimpleNamespace(**fields))
    assert outcome(NEW[cls], **fields) is want, (cls.__name__, name, value)
    if cls is TimeSeries:
        # synthesize takes a finite rate, and one at which its 2 samples
        # last a finite time: below about 1.1e-308 its bin spacing would be 0
        if want is None and not (value < math.inf and 2 / value < math.inf):
            want = ValueError
        assert new_synthesize(value) is want, ("synthesize", value)


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
def test_each_field_keeps_its_domain_on_special_values(cls, name):
    default = getattr(CLASSES[cls][1], name)
    values = [*SPECIAL, default, -default, np.nextafter(default, math.inf),
              np.nextafter(default, -math.inf)]
    if cls is not PulsedWindow:
        # JSON gives a section integers beyond the float range; a window is
        # a float (--T), and the reference's np.isfinite cannot take them
        values += [10**400, -(10**400)]
    for value in values:
        assert_same_outcome(cls, name, value)


@pytest.mark.parametrize("value", COUNTS)
def test_the_grid_count_keeps_its_domain_on_integers(value):
    assert_same_outcome(SweepConfig, "n_points", value)


def test_a_count_of_nan_or_inf_is_refused_where_linspace_refused_it():
    # the reference let these through to SweepConfig.freqs, whose linspace
    # cannot take a float count; they are refused when built instead
    for value in (math.nan, math.inf):
        assert outcome(ref_sweep, SimpleNamespace(**{**vars(SweepConfig()),
                                                     "n_points": value})) is None
        with pytest.raises(TypeError):
            SweepConfig.freqs.fget(SimpleNamespace(start=1.0, stop=2.0, n_points=value))
        with pytest.raises(ValueError, match=r"n_points must lie in \[2, inf\)"):
            SweepConfig(n_points=value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FLOAT_FIELDS), st.floats(allow_nan=True, allow_infinity=True))
def test_each_field_keeps_its_domain_on_any_float(field, value):
    assert_same_outcome(*field, value)


@settings(max_examples=100, deadline=None)
@given(st.integers())
def test_the_grid_count_keeps_its_domain_on_any_integer(value):
    assert_same_outcome(SweepConfig, "n_points", value)


def test_cross_field_checks_keep_their_outcomes():
    # start < stop and vbw <= rbw, with equal and swapped ends, and a pump
    # above threshold, which must stay an AboveThresholdError
    for start, stop in ((1e6, 1e6), (2e6, 1e6), (1e6, np.nextafter(1e6, 2e6))):
        fields = {**vars(SweepConfig()), "start": start, "stop": stop}
        assert outcome(SweepConfig, **fields) is outcome(ref_sweep, SimpleNamespace(**fields))
    for rbw, vbw in ((300.0, 300.0), (300.0, 301.0), (1e5, 5e-324)):
        fields = {**vars(SweepConfig()), "rbw": rbw, "vbw": vbw}
        assert outcome(SweepConfig, **fields) is outcome(ref_sweep, SimpleNamespace(**fields))
    for ratio in (1.0, 1e308, math.inf):
        assert outcome(OpoParams, pump_ratio=ratio) is AboveThresholdError


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FLAGS), st.one_of(st.sampled_from(SPECIAL + FLAG_DEFAULTS),
                                         st.floats(allow_nan=True, allow_infinity=True)))
def test_float_flags_keep_their_domain(flag, value):
    want = outcome(ref_finite_positive, flag, value, "x")
    assert outcome(cli._finite_positive, flag, value, "x") is want
    if want is None:
        assert cli._finite_positive(flag, value, "x") is value
    else:
        with pytest.raises(ConfigError, match=f"key '{flag}': x must lie in "):
            cli._finite_positive(flag, value, "x")
