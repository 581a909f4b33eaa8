"""The exit-code contract of the command line, run in-process over every
config key and float flag.

Each value is drawn from the special floats (NaN, +-inf, +-0, negatives, the
smallest subnormal, 1e308), integers (+-10^400 among them) and the
defaults. Whatever it is, the command
exits 0, 2, 3 or 4 with no traceback and no warning; a config value outside
its field's domain exits 2 naming its section and field, and a float flag
outside (0, inf) exits 2 naming the flag. Every exit 2 names the key drawn,
the one at fault. Sizes stay small: 1024-sample
records and 8-point grids.
"""

import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzsim import cli
from sqzsim.config import default_config
from sqzsim.opo import AboveThresholdError
from sqzsim.spectra import in_domain

README = Path(__file__).resolve().parents[1] / "README.md"

# every config field and its domain, as the parameter classes check it
DOMAINS = {
    ("opo", "pump_ratio"): "[0, 1)",
    ("opo", "cavity_hwhm"): "(0, inf]",
    ("opo", "escape_efficiency"): "(0, 1]",
    ("noise", "relax_center"): "(0, inf)",
    ("noise", "relax_fwhm"): "(0, inf)",
    ("noise", "relax_amp_plus"): "[0, inf)",
    ("noise", "relax_amp_minus"): "[0, inf)",
    ("noise", "lf_knee"): "(0, inf)",
    ("noise", "lf_exponent"): "(-inf, inf)",
    ("noise", "lf_amp"): "[0, inf)",
    ("detection", "quantum_efficiency"): "(0, 1]",
    ("detection", "visibility"): "(0, 1]",
    ("detection", "dark_noise_db"): "[-inf, 0)",
    ("analyzer", "start"): "(0, inf)",
    ("analyzer", "stop"): "(0, inf)",
    ("analyzer", "n_points"): "[2, inf)",
    ("analyzer", "rbw"): "(0, inf)",
    ("analyzer", "vbw"): "(0, inf)",
}
INTEGER_KEYS = {("analyzer", "n_points"), ("seed", None)}

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e308, 5e-324, -5e-324, 1e308]
# integers beside the floats, which an integer key refuses by type, and a
# float key beyond the float range
INTEGERS = [-1, 0, 1, 2, 8, 2**64, 10**12, 10**400, -(10**400)]

COMMANDS = [
    ["spectrum", "--points", "8"],
    ["criteria"],
    ["pulsed"],
    ["pulsed", "--model", "plus", "--assume-feedback"],
    ["synth", "--n-samples", "1024"],
    ["synth", "--mode", "plus", "--n-samples", "1024"],
    ["analyze", "{record}"],
]

# each float flag, the command it is given to, and its default
FLAGS = [
    (["spectrum", "--points", "8"], "--start", 300e3),
    (["spectrum", "--points", "8"], "--stop", 10e6),
    (["spectrum", "--points", "8"], "--rbw", 100e3),
    (["spectrum", "--points", "8"], "--vbw", 300.0),
    (["pulsed", "--example"], "--T", 1e-6),
    (["pulsed", "--model", "minus", "--assume-feedback"], "--T", 1e-6),
    (["pulsed"], "--flat", 1.0),
    (["synth", "--n-samples", "1024"], "--sample-rate", 25e6),
    (["synth"], "--n-samples", 1024.0),
    (["analyze", "{record}"], "--rbw", 100e3),
    (["criteria"], "--freq", 3.5e6),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a 1024-sample record for analyze."""
    path = tmp_path_factory.mktemp("contract")
    assert cli.main(["--out", str(path), "synth", "--n-samples", "1024"]) == 0
    return path


def run(workdir, *argv):
    """cli.main's exit code and stderr; a warning fails the run."""
    stderr = io.StringIO()
    argv = [a.format(record=workdir / "timeseries_minus.sqts") for a in argv]
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(["--out", str(workdir / "out"), *argv])
    err = stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    return code, err


def key_values(key):
    if key in INTEGER_KEYS:
        return st.sampled_from(INTEGERS + SPECIAL)
    default = getattr(getattr(default_config(), key[0]), key[1])
    return st.sampled_from(SPECIAL + INTEGERS + [default])


config_cases = st.sampled_from([*DOMAINS, ("seed", None)]).flatmap(
    lambda key: st.tuples(st.just(key), key_values(key)))


@settings(max_examples=300, deadline=None)
@given(config_cases, st.sampled_from(COMMANDS))
# a model value whose n S overflows in synthesis, though the value is finite,
# and integers beyond the float range where the command converts them
@example(case=(("noise", "lf_amp"), 1e305), command=["synth", "--n-samples", "1024"])
@example(case=(("analyzer", "stop"), 10**400), command=["spectrum", "--points", "8"])
@example(case=(("noise", "relax_center"), 10**400), command=["criteria"])
def test_any_config_value_keeps_the_exit_codes(workdir, case, command):
    (section, field), value = case
    if field == "n_points" and command[0] == "spectrum":
        command = ["spectrum"]  # --points would override the drawn value
    doc = {"seed": value} if field is None else {section: {field: value}}
    path = workdir / "config.json"
    path.write_text(json.dumps(doc))
    code, err = run(workdir, "--config", str(path), *command)
    if field is None:
        valid = isinstance(value, int) and 0 <= value < 2**64
    else:
        integer = (section, field) in INTEGER_KEYS
        valid = not integer or isinstance(value, int)
        try:
            in_domain(field, value if integer else float(value), DOMAINS[section, field])
        except (ValueError, OverflowError):  # OverflowError: an int beyond the float range
            valid = False
    if not valid:
        assert code == 2, err
    if code == 2:
        # the one value drawn is at fault: the refusal names it
        assert f"key '{section}" in err and (field or "") in err, err


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FLAGS).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(SPECIAL + [flag[2]]))))
def test_any_float_flag_keeps_the_exit_codes(workdir, case):
    (command, flag, default), value = case
    code, err = run(workdir, *command, f"{flag}={value!r}")
    if not 0 < value < math.inf or (flag == "--n-samples" and value != default):
        assert code == 2, err
    if code == 2:
        # the flag drawn is the only one at fault: the refusal names it
        assert f"key '{flag}'" in err, err


def test_the_readme_lists_every_domain():
    text = README.read_text()
    for (section, field), domain in DOMAINS.items():
        assert f"`{section}.{field}`: {domain}" in text


# ------------------------------------------------------- the domain tables

MAX = sys.float_info.max
BELOW_1, ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)

# each domain of DOMAINS, the values it takes and those it refuses: its
# ends, their float neighbours, the infinities and NaN
DOMAIN_TABLE = {
    "[0, 1)": ([0.0, -0.0, 5e-324, 0.5, BELOW_1],
               [-5e-324, -1.0, 1.0, ABOVE_1, MAX, math.inf, -math.inf, math.nan]),
    "(0, 1]": ([5e-324, 0.5, BELOW_1, 1.0],
               [0.0, -0.0, -5e-324, ABOVE_1, math.inf, -math.inf, math.nan]),
    "(0, inf]": ([5e-324, 1.0, MAX, math.inf], [0.0, -0.0, -5e-324, -math.inf, math.nan]),
    "(0, inf)": ([5e-324, 1.0, MAX], [0.0, -0.0, -5e-324, math.inf, -math.inf, math.nan]),
    "[0, inf)": ([0.0, -0.0, 5e-324, MAX], [-5e-324, -1.0, math.inf, -math.inf, math.nan]),
    "(-inf, inf)": ([-MAX, -0.0, 0.0, MAX], [math.inf, -math.inf, math.nan]),
    "[-inf, 0)": ([-math.inf, -MAX, -5e-324], [0.0, -0.0, 5e-324, 1.0, math.inf, math.nan]),
    # an integer count; a float NaN or inf is refused by the class as well
    # as by the config's type check
    "[2, inf)": ([2, 3, 512, 2**64, 10**400],
                 [1, 0, -1, -(10**400), math.nan, math.inf, -math.inf]),
}

# the rules between fields, which a domain table leaves to the table below
CROSS_RULES = ("start must lie below stop", "vbw must not exceed rbw", "relax_fwhm must be below")


def domain_refusal(cls, field, value):
    """How cls refuses value for field by the field's own domain, as (class,
    message), or None if it takes it there; a refusal by a rule between
    fields is not one."""
    try:
        cls(**{field: value})
    except ValueError as exc:
        if not str(exc).startswith(CROSS_RULES):
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("section, field", DOMAINS)
def test_each_config_field_takes_and_refuses_its_domain(section, field):
    domain = DOMAINS[section, field]
    cls = type(getattr(default_config(), section))
    takes, refuses = DOMAIN_TABLE[domain]
    for value in takes:
        assert domain_refusal(cls, field, value) is None, value
    for value in refuses:
        if field == "pump_ratio" and value >= 1:
            want = (AboveThresholdError, f"pump_ratio must be < 1 below threshold, got {value}")
        else:
            want = (ValueError, f"{field} must lie in {domain}, got {value!r}")
        assert domain_refusal(cls, field, value) == want


# fields together, and the refusal's first words (None: taken)
WIDEST = {amp: 2 * math.sqrt(MAX / amp) for amp in (1.0, 1.2, 1e300)}
CROSS_TABLE = [
    ("analyzer", {"start": 1e6, "stop": 1e6}, "start must lie below stop"),
    ("analyzer", {"start": 2e6, "stop": 1e6}, "start must lie below stop"),
    ("analyzer", {"start": 1e6, "stop": math.nextafter(1e6, 2e6)}, None),
    ("analyzer", {"start": 5e-324, "stop": math.nextafter(5e-324, 1.0)}, None),
    ("analyzer", {"rbw": 300.0, "vbw": 300.0}, None),
    ("analyzer", {"rbw": 300.0, "vbw": math.nextafter(300.0, 301.0)}, "vbw must not exceed rbw"),
    ("analyzer", {"rbw": 5e-324, "vbw": 5e-324}, None),
    # relax_fwhm stays below where max(1, relax_amp_plus, relax_amp_minus)
    # (relax_fwhm/2)^2 overflows: the defaults' 1.2, no excess, and 1e300
    ("noise", {"relax_fwhm": math.nextafter(WIDEST[1.2], 0.0)}, None),
    ("noise", {"relax_fwhm": WIDEST[1.2]}, "relax_fwhm must be below"),
    ("noise", {"relax_fwhm": MAX}, "relax_fwhm must be below"),
    ("noise", {"relax_amp_plus": 0.0, "relax_amp_minus": 0.0,
               "relax_fwhm": math.nextafter(WIDEST[1.0], 0.0)}, None),
    ("noise", {"relax_amp_plus": 0.0, "relax_amp_minus": 0.0, "relax_fwhm": WIDEST[1.0]},
     "relax_fwhm must be below"),
    ("noise", {"relax_amp_plus": 1e300, "relax_fwhm": math.nextafter(WIDEST[1e300], 0.0)}, None),
    ("noise", {"relax_amp_plus": 1e300}, "relax_fwhm must be below"),
]


@pytest.mark.parametrize("section, fields, refusal", CROSS_TABLE)
def test_rules_between_fields_take_and_refuse_as_tabled(section, fields, refusal):
    cls = type(getattr(default_config(), section))
    if refusal is None:
        cls(**fields)
    else:
        with pytest.raises(ValueError, match=f"^{refusal}"):
            cls(**fields)
