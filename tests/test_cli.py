import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sqzsim
from sqzsim import cli
from sqzsim.cli import main
from sqzsim.config import default_config, load_config
from sqzsim.dsp import TimeSeries
from sqzsim.fileio import write_timeseries

from conftest import fresh_python

REPO = Path(__file__).resolve().parents[1]


def schema(name):
    return json.loads((REPO / "schemas" / name).read_text())


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def quiet_config(tmp_path):
    """OPO off, classical noise off: everything should sit at shot noise."""
    path = tmp_path / "quiet.json"
    path.write_text(
        json.dumps(
            {
                "opo": {"pump_ratio": 0.0},
                "noise": {"relax_amp_plus": 0.0, "relax_amp_minus": 0.0, "lf_amp": 0.0},
                "seed": 5,
            }
        )
    )
    return path


@pytest.mark.parametrize("mode, traced", [("both", ("minus", "plus")), ("plus", ("plus",))])
def test_spectrum_emits_expected_files(tmp_path, mode, traced):
    assert run("--out", tmp_path, "--seed", 3, "spectrum", "--points", 64, "--mode", mode) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "inseparability.csv", "spectrum_analytic.csv",
        *(f"trace_{m}{kind}.{ext}" for m in traced for kind in ("", "_corrected")
          for ext in ("csv", "json"))]
    doc = json.loads((tmp_path / f"trace_{traced[0]}.json").read_text())
    jsonschema.validate(doc, schema("trace.schema.json"))
    header = (tmp_path / f"trace_{traced[0]}.csv").read_text().splitlines()[0]
    assert header == "freq_hz,value_db"


def test_spectrum_inseparability_below_threshold_away_from_peak(tmp_path):
    assert run("--out", tmp_path, "--seed", 3, "spectrum", "--points", 512) == 0
    rows = np.loadtxt(tmp_path / "inseparability.csv", delimiter=",", skiprows=1)
    freqs, insep = rows[:, 0], rows[:, 1]
    away = np.abs(freqs - 1e6) >= 250e3
    assert np.all(insep[away] <= 0.4)
    assert np.all(insep > 0)


def test_spectrum_quiet_config_sits_at_shot_noise(tmp_path, quiet_config):
    out = tmp_path / "out"
    assert run("--config", quiet_config, "--out", out, "spectrum", "--points", 200) == 0
    # vbw 300 Hz at rbw 100 kHz: ~167 averages, so ~0.34 dB rms fluctuation
    for name in ("trace_minus.csv", "trace_minus_corrected.csv"):
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert abs(rows[:, 1].mean()) < 0.1, name
        assert np.max(np.abs(rows[:, 1])) < 1.5, name


def test_spectrum_band_reversed_is_config_error(tmp_path, capsys):
    assert run("--out", tmp_path, "spectrum", "--start", 1e6, "--stop", 1e5) == 2
    assert "start" in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["--points", 1], "key '--points': n_points must lie in [2, inf), got 1"),
    (["--start", 2e7], "key '--start': start must lie below stop, got 20000000.0 and 10000000.0"),
    (["--stop", 1e5], "key '--stop': start must lie below stop, got 300000.0 and 100000.0"),
    (["--vbw", 2e5], "key '--vbw': vbw must not exceed rbw, got 200000.0 and 100000.0"),
    (["--rbw", 100.0], "key '--rbw': vbw must not exceed rbw, got 300.0 and 100.0"),
    # the other flags are valid, so the refusal is the one flag's
    (["--points", 8, "--start", "nan"], "key '--start': start must lie in (0, inf), got nan"),
    (["--start", 2e7, "--stop", 1.5e7],
     "key '--start': start must lie below stop, got 20000000.0 and 15000000.0"),
])
def test_a_sweep_flag_the_analyzer_refuses_is_named(tmp_path, capsys, argv, err):
    assert run("--out", tmp_path, "spectrum", *argv) == 2
    assert capsys.readouterr().err == f"configuration error: {err}\n"


@pytest.mark.parametrize("argv", [["--start", 2e7, "--stop", 3e7], ["--stop", 2e5, "--start", 1e5],
                                  ["--vbw", 2e5, "--rbw", 3e5], ["--rbw", 200.0, "--vbw", 100.0]])
def test_sweep_flags_valid_together_are_taken_in_any_order(tmp_path, argv):
    # each pair breaks start < stop or vbw <= rbw against the config's other end
    assert run("--out", tmp_path, "spectrum", "--points", 8, *argv) == 0


def test_a_config_grid_the_analyzer_refuses_names_its_section(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"analyzer": {"n_points": 1}}))
    assert run("--config", path, "--out", tmp_path, "spectrum") == 2
    assert capsys.readouterr().err == (
        "configuration error: key 'analyzer': n_points must lie in [2, inf), got 1\n")


def test_above_threshold_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"opo": {"pump_ratio": 1.4}}))
    assert run("--config", path, "criteria") == 2
    assert "opo" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"detection": {"qe": 0.9}}))
    assert run("--config", path, "criteria") == 2
    assert "detection.qe" in capsys.readouterr().err


def test_pulsed_flat_unity(tmp_path):
    assert run("--out", tmp_path, "pulsed", "--flat", 1.0, "--T", 1e-6) == 0
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    jsonschema.validate(doc, schema("pulsed_report.schema.json"))
    assert doc["improvement_factor"] == pytest.approx(1.0, rel=1e-9)
    assert doc["pulsed_variance"] == pytest.approx(5e-7, rel=1e-9)


def test_pulsed_half_level(tmp_path):
    assert run("--out", tmp_path, "pulsed", "--flat", 0.501, "--T", 1e-6) == 0
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    assert doc["improvement_factor"] == pytest.approx(1.995, abs=2e-3)


def test_pulsed_example_reports_both_factors(tmp_path, capsys):
    assert run("--out", tmp_path, "pulsed", "--example", "--T", 1e-6) == 0
    out = capsys.readouterr().out
    assert "1.7" in out and "1.815" in out
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    jsonschema.validate(doc, schema("pulsed_report.schema.json"))
    assert doc["reference_factor"] == 1.7
    assert 1.6 <= doc["improvement_factor"] <= 2.0


def test_pulsed_inline_piecewise(tmp_path):
    inline = json.dumps({"breakpoints": [50e3], "values": [1.0], "tail_value": 0.5})
    assert run("--out", tmp_path, "pulsed", "--piecewise", inline, "--T", 1e-6) == 0
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    assert doc["improvement_factor"] > 1.0


def test_pulsed_model_requires_feedback_clamp(tmp_path, capsys):
    # the low-frequency technical-noise divergence is a numerical error...
    assert run("--out", tmp_path, "pulsed", "--model", "minus", "--T", 1e-6) == 3
    assert "clamp" in capsys.readouterr().err
    # ...unless the feedback clamp is requested
    assert run("--out", tmp_path, "pulsed", "--model", "minus",
               "--assume-feedback", "--T", 1e-6) == 0
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    assert doc["improvement_factor"] > 1.0


def test_pulsed_adds_a_far_jump_in_closed_form(tmp_path, capsys):
    # a jump beyond the near field, at 1001 lobes: with its closed-form term
    # the value lies within 1e-9 of the sine integral's
    inline = '{"breakpoints":[1007482.3070055916],"values":[0.0625],"tail_value":4.0}'
    assert run("--out", tmp_path, "pulsed", "--piecewise", inline,
               "--T", 0.0009935658353893498) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    jsonschema.validate(doc, schema("pulsed_report.schema.json"))
    assert doc["pulsed_variance"] == pytest.approx(3.12469269696423e-05, rel=1e-9)
    assert doc["quadrature_error"] <= 1e-6 * doc["pulsed_variance"]


def test_pulsed_long_window_on_clamped_model(tmp_path):
    assert run("--out", tmp_path, "pulsed", "--model", "minus",
               "--assume-feedback", "--T", 1e-3) == 0
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    jsonschema.validate(doc, schema("pulsed_report.schema.json"))
    assert doc["quadrature_error"] <= 1e-6 * doc["pulsed_variance"]


@pytest.mark.parametrize("t, factor", [("1e-170", "1.995262"), ("1e-300", "1.995262"),
                                      ("1e-304", "1.995262"), ("1e160", "1.000000")])
def test_pulsed_example_at_extreme_windows(tmp_path, capsys, t, factor):
    # T^2 would under- or overflow at these windows; the engine works in lobes
    assert run("--out", tmp_path, "pulsed", "--example", f"--T={t}") == 0
    assert f"improvement factor  : {factor}" in capsys.readouterr().out


def test_pulsed_prints_an_extreme_ratio_in_exponent_form(tmp_path, capsys):
    assert run("--out", tmp_path, "pulsed", "--flat=1e-300", "--T=1") == 0
    out = capsys.readouterr().out
    assert "normalized ratio    : 1.000000e-300\n" in out
    assert "improvement factor  : 1.000000e+300\n" in out


@pytest.mark.parametrize("x, shown", [(1.0, "1.000000"), (1e-4, "0.000100"),
                                      (-1e-4, "-0.000100"), (9.99e-5, "9.990000e-05"),
                                      (999999.5, "999999.500000"), (1e6, "1.000000e+06")])
def test_pulsed_figures_are_fixed_point_only_where_it_reads(x, shown):
    assert cli._readable(x) == shown


@pytest.mark.parametrize("mode", ["plus", "minus"])
def test_pulsed_model_at_a_window_reaching_past_float_squares(tmp_path, capsys, mode):
    # the near field runs to 250 / T = 2.5e172 Hz, where S = 1
    assert run("--out", tmp_path, "pulsed", "--model", mode, "--assume-feedback",
               "--T", 1e-170) == 0
    assert "improvement factor  : 1.000000" in capsys.readouterr().out


# 5e-324 is positive, but 250 / T, where the near field ends, overflows
@pytest.mark.parametrize("t", ["inf", "nan", "0", "-1e-6", "5e-324"])
def test_pulsed_rejects_window_that_is_not_finite_and_positive(tmp_path, capsys, t):
    assert run("--out", tmp_path, "pulsed", "--example", f"--T={t}") == 2
    assert "'--T'" in capsys.readouterr().err
    assert not (tmp_path / "pulsed_report.json").exists()


@pytest.mark.parametrize("level", ["0", "-1", "inf", "nan"])
def test_pulsed_rejects_flat_level_that_is_not_finite_and_positive(tmp_path, capsys, level):
    assert run("--out", tmp_path, "pulsed", f"--flat={level}") == 2
    assert "'--flat'" in capsys.readouterr().err
    assert not (tmp_path / "pulsed_report.json").exists()


@pytest.mark.parametrize("inline", [
    '{"breakpoints": [NaN], "values": [1.0], "tail_value": 0.5}',
    '{"breakpoints": [5e4], "values": [NaN], "tail_value": 0.5}',
    '{"breakpoints": [5e4], "values": [1.0], "tail_value": Infinity}',
])
def test_pulsed_rejects_non_finite_piecewise(tmp_path, capsys, inline):
    assert run("--out", tmp_path, "pulsed", "--piecewise", inline) == 2
    assert "'--piecewise'" in capsys.readouterr().err


# the variance overflows; it underflows to 0; the sum in lobe units is
# already 0; a subnormal variance overflows the improvement factor
@pytest.mark.parametrize("level, t", [("1e300", "1e10"), ("1e-300", "1e-300"), ("5e-324", "1"),
                                      ("5e-320", "1")])
def test_pulsed_refuses_a_variance_beyond_the_float_range(tmp_path, capsys, level, t):
    assert run("--out", tmp_path, "pulsed", f"--flat={level}", f"--T={t}") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"numerical error: the window variance at T = {float(t):g} s is " in err
    assert "must be finite and positive floats" in err
    assert not (tmp_path / "pulsed_report.json").exists()


@pytest.mark.parametrize("inline, field", [
    ('{"breakpoints":["5e4"],"values":[true],"tail_value":"0.5","extra":1}', "breakpoints"),
    ('{"breakpoints": [5e4], "values": [true], "tail_value": 0.5}', "values"),
    ('{"breakpoints": [5e4], "values": [1.0], "tail_value": "0.5"}', "tail_value"),
    ('{"breakpoints": [5e4], "values": [1.0], "tail_value": 0.5, "extra": 1}', "extra"),
    ('{"breakpoints": 5e4, "values": [1.0], "tail_value": 0.5}', "breakpoints"),
])
def test_pulsed_piecewise_is_checked_like_a_config_section(tmp_path, capsys, inline, field):
    assert run("--out", tmp_path, "pulsed", "--piecewise", inline) == 2
    assert f"configuration error: key '--piecewise.{field}': " in capsys.readouterr().err
    assert not (tmp_path / "pulsed_report.json").exists()


def test_pulsed_conflicting_sources(tmp_path):
    assert run("--out", tmp_path, "pulsed", "--flat", 1.0, "--example") == 2


@pytest.mark.parametrize("source", [["--example"], ["--flat", 2],
                                    ["--piecewise", '{"breakpoints": [5e4], "values": [1.0], '
                                                    '"tail_value": 0.5}']])
def test_pulsed_feedback_clamp_outside_the_model_is_a_config_error(tmp_path, capsys, source):
    # the clamp acts on the model spectrum only; the report would claim it
    assert run("--out", tmp_path, "pulsed", *source, "--assume-feedback") == 2
    assert capsys.readouterr().err == (
        "configuration error: key '--assume-feedback': it clamps the model spectrum only "
        f"and cannot go with {source[0]}\n")
    assert not (tmp_path / "pulsed_report.json").exists()


def test_synth_analyze_round_trip(tmp_path):
    out = tmp_path / "out"
    assert run("--out", out, "--seed", 11, "synth", "--mode", "shot",
               "--n-samples", 2**16, "--sample-rate", 25e6) == 0
    rec = out / "timeseries_shot.sqts"
    assert rec.exists()
    assert run("--out", out, "analyze", rec, "--rbw", 4e5) == 0
    doc = json.loads((out / "trace_analyzed.json").read_text())
    jsonschema.validate(doc, schema("trace.schema.json"))


def test_synth_of_a_model_whose_n_s_overflows_names_the_frequency(tmp_path, capsys):
    # lf_amp 1e305 is finite everywhere in the band, but 1024 S is not at
    # the first bin: the record would be NaN
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"noise": {"lf_amp": 1e305}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--config", path, "--out", tmp_path / "out", "synth", "--n-samples", 1024) == 3
    assert capsys.readouterr().err == (
        "numerical error: spectrum is 3.7491e+305 at 24414.1 Hz, too large for a record of "
        "1024 samples: n S leaves the float range\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shot", [False, True])
def test_analyze_names_the_first_sample_that_is_not_finite(tmp_path, capsys, shot):
    samples = np.ones(1024)
    samples[[28, 500]] = np.nan
    bad = tmp_path / "bad.sqts"
    write_timeseries(bad, TimeSeries(25e6, samples, 1))
    assert run("--out", tmp_path, "synth", "--n-samples", 1024) == 0
    good = tmp_path / "timeseries_minus.sqts"
    capsys.readouterr()
    argv = [good, "--shot", bad] if shot else [bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--out", tmp_path / "out", "analyze", *argv) == 3
    assert capsys.readouterr().err == (
        "numerical error: record sample 28 is nan: a PSD needs finite samples\n")
    assert not (tmp_path / "out").exists()


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("--out", out, "--seed", 9, "synth", "--mode", "minus",
                   "--n-samples", 2**14) == 0
    assert (a / "timeseries_minus.sqts").read_bytes() == (
        b / "timeseries_minus.sqts"
    ).read_bytes()


def test_synth_different_seed_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--out", a, "--seed", 9, "synth", "--n-samples", 2**14) == 0
    assert run("--out", b, "--seed", 10, "synth", "--n-samples", 2**14) == 0
    assert (a / "timeseries_minus.sqts").read_bytes() != (
        b / "timeseries_minus.sqts"
    ).read_bytes()


def _must_not_run(*args, **kwargs):
    raise AssertionError("synthesize was reached")


def test_synth_record_larger_than_memory_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "synthesize", _must_not_run)
    assert run("--out", tmp_path, "--seed", 1, "synth", "--n-samples", 2**40) == 2
    err = capsys.readouterr().err
    assert str(8 * 2**40) in err and "physical memory" in err


def test_running_out_of_memory_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 19.1 GiB")

    monkeypatch.setattr(cli, "write_csv", out_of_memory)
    assert run("--out", tmp_path, "spectrum", "--points", 64) == 3
    err = capsys.readouterr().err
    # inside the grid's memory estimate, the message names its key and size
    need = cli.SPECTRUM_PEAK_PER_POINT * 64
    assert err == ("numerical error: out of memory in spectrum: key '--points': a grid of "
                   f"n_points = 64, about {need / 2**20:.0f} MiB at peak: Unable to allocate 19.1 GiB\n")

    # outside any estimate; Python's own MemoryError carries no message
    def no_memory_left(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "squeezed_variance", no_memory_left)
    assert run("--out", tmp_path, "criteria") == 3
    err = capsys.readouterr().err
    assert err == "numerical error: out of memory in criteria: an allocation failed\n"


# lowers its own address-space limit to its size after import plus a margin
# (sys.argv[1] bytes), then runs the command in sys.argv[2:]; prints the
# exit code and the command's stderr
UNDER_AN_ADDRESS_SPACE_LIMIT = """
import contextlib, io, re, resource, sys
from pathlib import Path
from sqzsim import cli

size = int(re.search(r"VmSize:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1]) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[2:])
print(code, err.getvalue(), end="")
"""


@pytest.mark.parametrize("argv, what, need", [
    (["synth", "--n-samples", "4194304"],
     "key '--n-samples': a record of 4194304 samples (33554432 bytes)",
     cli.SYNTH_PEAK_PER_RECORD * 8 * 2**22),
    (["spectrum", "--points", "20000"], "key '--points': a grid of n_points = 20000",
     cli.SPECTRUM_PEAK_PER_POINT * 20000),
])
def test_an_allocation_refused_below_physical_memory_names_its_key_and_size(tmp_path, argv,
                                                                             what, need):
    # the estimate fits physical memory, so it passes the exit-2 check; the
    # limit (ulimit -v) then refuses its first large array
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    margin = 16 * 2**20
    assert margin < need
    out = fresh_python(UNDER_AN_ADDRESS_SPACE_LIMIT, margin, "--out", tmp_path, "--seed", 1,
                       *argv)
    code, _, err = out.partition(" ")
    assert code == "3", err
    assert err.startswith(f"numerical error: out of memory in {argv[0]}: {what}, about "
                          f"{need / 2**20:.0f} MiB at peak: "), err


def test_synth_peak_larger_than_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # 16 MiB of physical memory holds the 8 MiB record of 2^20 samples, but
    # not the several records' worth that synthesis peaks at
    n, page = 2**20, 4096
    pages = {"SC_PHYS_PAGES": 2 * 8 * n // page, "SC_PAGE_SIZE": page}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(cli, "synthesize", _must_not_run)
    assert 8 * n < 2 * 8 * n < cli.SYNTH_PEAK_PER_RECORD * 8 * n
    assert run("--out", tmp_path, "--seed", 1, "synth", "--n-samples", n) == 2
    err = capsys.readouterr().err
    assert str(cli.SYNTH_PEAK_PER_RECORD * 8 * n) in err and "physical memory" in err


def test_synth_peak_is_within_its_memory_bound(tmp_path):
    # a fresh interpreter, whose own high-water mark is VmHWM; ru_maxrss
    # would not do, as a process starts with its parent's high-water mark
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    script = """
import re, sys
from pathlib import Path
from sqzsim import cli

def hwm():
    return int(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1]) * 1024

base = hwm()
assert cli.main(["--out", sys.argv[1], "--seed", "1", "synth", "--n-samples", "1048576"]) == 0
print((hwm() - base) / (8 * 2**20), cli.SYNTH_PEAK_PER_RECORD)
"""
    ratio, bound = map(float, fresh_python(script, tmp_path).split()[-2:])
    assert ratio <= bound, f"synth peaked at {ratio:.2f} record sizes above import"


def test_spectrum_grid_larger_than_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # 2^50 points would be refused by numpy's allocator with exit 3 had the
    # grid been built; exit 2 shows it was refused before that
    for name in ("emulate_sweep", "write_csv"):
        monkeypatch.setattr(cli, name, _must_not_run)
    out = tmp_path / "out"
    assert run("--out", out, "spectrum", "--points", 2**50) == 2
    err = capsys.readouterr().err
    need = cli.SPECTRUM_PEAK_PER_POINT * 2**50
    assert err.startswith("configuration error: key '--points': a grid of ")
    assert str(need) in err and "physical memory" in err
    assert not out.exists()


def test_spectrum_config_grid_larger_than_memory_names_its_key(tmp_path, capsys, monkeypatch):
    # the default 512 points against 1 MiB of physical memory
    page = 4096
    pages = {"SC_PHYS_PAGES": 2**20 // page, "SC_PAGE_SIZE": page}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(cli, "emulate_sweep", _must_not_run)
    assert 2**20 < cli.SPECTRUM_PEAK_PER_POINT * 512
    assert run("--out", tmp_path, "spectrum") == 2
    err = capsys.readouterr().err
    assert "key 'analyzer': a grid of n_points = 512 needs about " in err
    assert str(cli.SPECTRUM_PEAK_PER_POINT * 512) in err


def test_spectrum_peak_is_within_its_memory_bound(tmp_path):
    # as for synth: a fresh interpreter, whose own high-water mark is VmHWM
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    script = """
import re, sys
from pathlib import Path
from sqzsim import cli

def hwm():
    return int(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1]) * 1024

base = hwm()
assert cli.main(["--out", sys.argv[1], "--seed", "1", "spectrum", "--points", "8000"]) == 0
print((hwm() - base) / 8000, cli.SPECTRUM_PEAK_PER_POINT)
"""
    per_point, bound = map(float, fresh_python(script, tmp_path).split()[-2:])
    assert per_point <= bound, f"spectrum peaked at {per_point:.0f} bytes per point"


@pytest.mark.parametrize("mode", ["shot", "minus"])
def test_detected_record_is_one_synthesis_of_the_observed_spectrum(mode):
    # the electronic floor comes with observe's spectrum, not from a second draw
    cfg = default_config()
    n = 2**18
    source = (sqzsim.Spectrum.flat(1.0) if mode == "shot"
              else sqzsim.total_spectrum(cfg.opo, cfg.noise, mode))
    # each mode draws from its own sub-seed: plus, minus and shot, in that order
    sub_seed = dict(zip(("plus", "minus", "shot"), cli._sub_seeds(cfg.require_seed(), 3)))[mode]
    want = sqzsim.synthesize(sqzsim.observe(source, cfg.detection), 25e6, n, sub_seed)
    got = cli.detected_record(cfg, mode, 25e6, n)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.seed == cfg.require_seed()


def test_records_of_one_seed_are_independent_across_modes():
    # a minus record normalized to a shot record of the same seed scatters
    # about the model as two independent Welch estimates do; records drawn
    # from the same normals would cancel that scatter (0.0006 dB)
    cfg = default_config()
    n, fs, rbw = 2**20, 25e6, 1e5
    psd = {mode: sqzsim.welch_psd(cli.detected_record(cfg, mode, fs, n), rbw)
           for mode in ("minus", "shot")}
    f = psd["minus"].freqs
    band = (f >= 3e5) & (f <= 10e6) & (np.abs(f - cfg.noise.relax_center) > 3e5)
    model = sqzsim.observed_relative_to_shot(
        sqzsim.total_spectrum(cfg.opo, cfg.noise, "minus"), cfg.detection)(f[band])
    scatter = np.std(10 * np.log10(psd["minus"].values[band] / psd["shot"].values[band] / model))
    # Welch's relative error over k 50%-overlapped Hann segments is
    # sqrt((1 + 2 (k - 1) / k rho) / k), rho the squared overlap correlation
    # of the window (Welch 1967), and a ratio of two estimates doubles its
    # variance; the std of m bins scatters by about 1 / sqrt(2 m) itself
    nperseg = 2 * (f.size - 1)
    k = 2 * n // nperseg - 1
    w = np.hanning(nperseg + 1)[:-1]
    rho = (np.sum(w[: nperseg // 2] * w[nperseg // 2:]) / np.sum(w**2)) ** 2
    expected = 10 / np.log(10) * np.sqrt(2 * (1 + 2 * (k - 1) / k * rho) / k)
    assert abs(scatter / expected - 1) <= 4 / np.sqrt(2 * band.sum())


@pytest.mark.parametrize("given", ["nan", "inf", "-inf", "1.5", "0", "1", "3", "-4", "65537"])
def test_synth_rejects_n_samples_that_are_not_powers_of_two(tmp_path, capsys, monkeypatch,
                                                          given):
    monkeypatch.setattr(cli, "synthesize", _must_not_run)
    assert run("--out", tmp_path, "--seed", 1, "synth", f"--n-samples={given}") == 2
    err = capsys.readouterr().err
    assert "'--n-samples'" in err and f"got {given}" in err


@pytest.mark.parametrize("mode", ["minus", "plus", "shot"])
def test_synth_at_a_rate_whose_record_never_ends_names_the_rate(tmp_path, capsys, monkeypatch,
                                                                  mode):
    # 1024 / 5e-324 s overflows, and the bin spacing fs / 1024 is 0
    monkeypatch.setattr(cli, "synthesize", _must_not_run)
    assert run("--out", tmp_path / "out", "--seed", 1, "synth", "--mode", mode,
               "--n-samples", 1024, "--sample-rate", 5e-324) == 2
    assert capsys.readouterr().err == (
        "configuration error: key '--sample-rate': sample_rate must give 1024 samples a "
        "finite duration, got 5e-324\n")
    assert not (tmp_path / "out").exists()


def test_synth_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None}))
    assert run("--config", cfg, "--out", tmp_path, "synth", "--n-samples", 2**12) == 2
    assert "seed" in capsys.readouterr().err


def test_analyze_corrupt_magic_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.sqts"
    bad.write_bytes(b"XXXX" + bytes(60))
    assert run("--out", tmp_path, "analyze", bad) == 4
    assert "offset 0" in capsys.readouterr().err


def test_analyze_of_a_record_with_an_infinite_sample_rate_exits_4(tmp_path, capsys):
    # the header is at fault, not the record's length
    path = tmp_path / "inf.sqts"
    write_timeseries(path, TimeSeries(math.inf, np.zeros(1024), 0))
    assert run("--out", tmp_path / "out", "analyze", path) == 4
    assert capsys.readouterr().err == (
        "i/o error: bad sample rate inf at byte offset 8, expected one in (0, inf)\n")
    assert not (tmp_path / "out").exists()


def test_analyze_names_the_record_and_the_first_bin_with_no_power(tmp_path, capsys):
    # an all-zero record is long enough for its Welch segments, but has no
    # power to put on a dB scale; at 25 MHz and rbw 100 kHz the bins are
    # 48828.125 Hz apart, and the DC bin is dropped
    zero, good = tmp_path / "zero.sqts", tmp_path / "timeseries_shot.sqts"
    write_timeseries(zero, TimeSeries(25e6, np.zeros(4096), 0))
    assert run("--out", tmp_path, "synth", "--mode", "shot", "--n-samples", 4096) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for argv, name in (((zero,), f"record {zero}"),
                       ((good, "--shot", zero), f"--shot record {zero}")):
        assert run("--out", out, "analyze", *argv) == 3
        assert capsys.readouterr().err == (
            f"numerical error: {name} has no power at 48828.1 Hz, "
            "where a dB trace needs a positive PSD\n")
    assert not out.exists()


# at fs = 25 MHz, 2 fs / rbw overflows; it does not, but its power of two does
@pytest.mark.parametrize("rbw", ["5e-324", "5e-301"])
def test_analyze_with_a_tiny_rbw_names_the_short_record(tmp_path, capsys, rbw):
    assert run("--out", tmp_path, "synth", "--n-samples", 1024) == 0
    assert run("--out", tmp_path, "analyze", tmp_path / "timeseries_minus.sqts", "--rbw", rbw) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        f"numerical error: record of 1024 samples is too short for rbw={float(rbw):.6g} Hz: "
    )
    assert not (tmp_path / "trace_analyzed.csv").exists()


def test_analyze_with_an_rbw_at_twice_the_sample_rate_names_its_key(tmp_path, capsys):
    assert run("--out", tmp_path, "synth", "--n-samples", 1024) == 0
    record = tmp_path / "timeseries_minus.sqts"
    capsys.readouterr()
    assert run("--out", tmp_path, "analyze", record, "--rbw", 5e7) == 2
    assert capsys.readouterr().err == (
        "configuration error: key '--rbw': rbw must lie in (0, 50000000.0), got 50000000.0\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"analyzer": {"rbw": 1e9}}))
    assert run("--config", path, "--out", tmp_path, "analyze", record) == 2
    assert capsys.readouterr().err == (
        "configuration error: key 'analyzer': rbw must lie in (0, 50000000.0), "
        "got 1000000000.0\n")
    assert not (tmp_path / "trace_analyzed.csv").exists()


def test_analyze_names_the_rbw_a_slower_shot_record_refuses(tmp_path, capsys):
    slow = tmp_path / "slow"
    assert run("--out", tmp_path, "synth", "--n-samples", 2**12) == 0
    assert run("--out", slow, "synth", "--mode", "shot", "--n-samples", 2**12,
               "--sample-rate", 1e6) == 0
    capsys.readouterr()
    assert run("--out", tmp_path / "out", "analyze", tmp_path / "timeseries_minus.sqts",
               "--rbw", 4e6, "--shot", slow / "timeseries_shot.sqts") == 2
    assert capsys.readouterr().err == (
        "configuration error: key '--rbw': rbw must lie in (0, 2000000.0), got 4000000.0\n")


def test_analyze_missing_file_exits_4(tmp_path):
    assert run("--out", tmp_path, "analyze", tmp_path / "missing.sqts") == 4


def test_analyze_with_shot_normalization(tmp_path):
    out = tmp_path / "out"
    assert run("--out", out, "--seed", 21, "synth", "--mode", "minus",
               "--n-samples", 2**18, "--sample-rate", 25e6) == 0
    assert run("--out", out, "--seed", 22, "synth", "--mode", "shot",
               "--n-samples", 2**18, "--sample-rate", 25e6) == 0
    assert run("--out", out, "--format", "csv", "analyze",
               out / "timeseries_minus.sqts", "--rbw", 4e5,
               "--shot", out / "timeseries_shot.sqts") == 0
    rows = np.loadtxt(out / "trace_normalized.csv", delimiter=",", skiprows=1)
    band = (rows[:, 0] > 2e6) & (rows[:, 0] < 10e6)
    # squeezed record vs shot: clearly below 0 dB through the band
    assert rows[band, 1].mean() < -2.0
    assert not (out / "trace_normalized.json").exists()  # csv-only requested


def test_criteria_report(tmp_path):
    assert run("--out", tmp_path, "criteria") == 0
    doc = json.loads((tmp_path / "criteria_report.json").read_text())
    jsonschema.validate(doc, schema("criteria_report.schema.json"))
    assert 0.31 <= doc["inseparability_detected"] <= 0.35
    assert doc["physical"] is True
    for mode in ("plus", "minus"):
        assert 40e3 <= doc["snl_crossing_hz"][mode] <= 60e3


def test_criteria_at_one_frequency_reports_the_array_values(tmp_path):
    # numpy's scalar power rounds (f / cavity_hwhm)^2 differently from the
    # array loop at this frequency, which a scalar path would show
    f = 9764694.0
    assert run("--out", tmp_path, "criteria", "--freq", f) == 0
    doc = json.loads((tmp_path / "criteria_report.json").read_text())
    src, det = cli._mode_spectra(default_config())
    assert doc["inseparability_detected"] == cli._inseparability(det, np.array([f]))[0]
    assert doc["inseparability_source"] == cli._inseparability(src, np.array([f]))[0]


def test_criteria_names_the_bracket_it_searched(tmp_path, capsys):
    # g(hi) >= 0: the relaxation peak lifts the minus mode above shot noise at
    # the top of the bracket
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"noise": {"relax_center": 100e3}}))
    assert run("--config", path, "--out", tmp_path, "criteria") == 0
    out = capsys.readouterr().out
    assert "crossing (minus mode): not bracketed in [5, 80] kHz" in out
    doc = json.loads((tmp_path / "criteria_report.json").read_text())
    assert doc["snl_crossing_hz"]["minus"] is None


@pytest.mark.parametrize("section", [
    {"noise": {"lf_amp": 0.0}},  # squeezed already at the bracket's start
    {"opo": {"pump_ratio": 0.0},  # shot noise everywhere: g(lo) = 0
     "noise": {"lf_amp": 0.0, "relax_amp_plus": 0.0, "relax_amp_minus": 0.0}},
])
def test_criteria_without_excess_at_the_bracket_start_writes_null(tmp_path, capsys, section):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(section))
    assert run("--config", path, "--out", tmp_path, "criteria") == 0
    out = capsys.readouterr().out
    doc = json.loads((tmp_path / "criteria_report.json").read_text())
    jsonschema.validate(doc, schema("criteria_report.schema.json"))
    for mode in ("plus", "minus"):
        assert f"crossing ({mode} mode): not bracketed in [5, 500] kHz" in out
        assert doc["snl_crossing_hz"][mode] is None


@pytest.mark.parametrize("relax_center", [1e6, 300e3])
@pytest.mark.parametrize("lf_knee", [20e3, 50e3, 100e3])
@pytest.mark.parametrize("pump_ratio", [0.42, 0.7])
def test_criteria_crossing_is_pinned_between_adjacent_floats(tmp_path, relax_center, lf_knee,
                                                            pump_ratio):
    # the grid holds the default config (1 MHz, 50 kHz, 0.42)
    from scipy.optimize import brentq

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"opo": {"pump_ratio": pump_ratio},
                                "noise": {"relax_center": relax_center, "lf_knee": lf_knee}}))
    assert run("--config", path, "--out", tmp_path, "criteria") == 0
    crossings = json.loads((tmp_path / "criteria_report.json").read_text())["snl_crossing_hz"]
    cfg = load_config(path)
    lo, hi = 5e3, min(5e5, 0.8 * relax_center)
    for mode in ("plus", "minus"):
        spectrum = sqzsim.total_spectrum(cfg.opo, cfg.noise, mode)
        g = lambda f: spectrum(f) - 1.0
        r = crossings[mode]
        # the sign change lies between r and the next float: exact to rounding
        assert g(r) >= 0 >= g(np.nextafter(r, hi)), mode
        assert abs(r - brentq(g, lo, hi)) <= 2e-12 + 4 * np.spacing(r), mode


def test_criteria_rejects_bad_frequency(tmp_path, capsys):
    assert run("--out", tmp_path, "criteria", "--freq", -1.0) == 2


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--sample-rate", "inf"),
    ("synth", "--sample-rate", "nan"),
    ("criteria", "--freq", "inf"),
    ("criteria", "--freq", "nan"),
    ("spectrum", "--rbw", "inf"),
    ("spectrum", "--stop", "inf"),
    ("spectrum", "--vbw", "nan"),
    ("analyze", "--rbw", "inf"),
    ("analyze", "--rbw", "nan"),
])
def test_float_options_that_are_not_finite_are_config_errors(tmp_path, capsys, monkeypatch,
                                                             command, flag, value):
    argv = ["--out", tmp_path, "--seed", 1, command]
    if command == "analyze":
        assert run("--out", tmp_path, "--seed", 1, "synth", "--n-samples", 2**12) == 0
        argv.append(tmp_path / "timeseries_minus.sqts")
        capsys.readouterr()
    monkeypatch.setattr(cli, "synthesize", _must_not_run)
    assert run(*argv, f"{flag}={value}") == 2
    err = capsys.readouterr().err
    assert f"key '{flag}': " in err and f"must lie in (0, inf), got {value}" in err


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in (
        "relax_center", "relax_fwhm", "relax_amp_plus", "relax_amp_minus", "lf_knee",
        "lf_exponent", "lf_amp",
    ) for value in (math.nan, math.inf)),
    ("relax_center", 0.0),
    ("relax_center", -1e6),
    # relax_amp_minus (relax_fwhm/2)^2 overflows from 2.45e154
    ("relax_fwhm", 1e200),
])
def test_noise_values_out_of_domain_are_config_errors(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"noise": {field: value}}))
    assert run("--config", path, "--out", tmp_path, "pulsed", "--model", "minus",
               "--assume-feedback") == 2
    assert f"key 'noise': {field} must " in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("noise", "relax_center", "nan"),
    ("opo", "pump_ratio", "0.4"),
    ("analyzer", "n_points", "512"),
    ("analyzer", "n_points", 64.0),
    ("detection", "visibility", None),
])
def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, section, key,
                                                          value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert run("--config", path, "--out", tmp_path, "criteria") == 2
    kind = "an integer" if key == "n_points" else "a number"
    assert f"key '{section}.{key}': expected {kind}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, 5, ["a"]])
def test_out_dir_of_the_wrong_type_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    # str() would turn null into the directory ./None
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps({"out_dir": value}))
    assert run("--config", "bad.json", "criteria") == 2
    assert f"key 'out_dir': expected a string, got {value!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("command", [["criteria"], ["spectrum", "--points", 50],
                                     ["synth", "--n-samples", 1024]])
def test_a_warning_raised_as_an_error_is_a_numerical_error(tmp_path, capsys, monkeypatch,
                                                            command):
    # a model whose evaluation overflows; under python -W error numpy raises
    # the warning. Every command builds its model spectra through this name
    def overflowing(opo, noise, mode):
        return np.exp(np.array([1e3]))

    monkeypatch.setattr(cli, "total_spectrum", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--seed", 1, "--out", tmp_path / "out", *command) == 3
    assert "numerical error: overflow encountered in exp" in capsys.readouterr().err


# (lf_knee / f)^lf_exponent leaves the float range at a tiny f or a huge knee
@pytest.mark.parametrize("noise, argv, at", [
    ({}, ["criteria", "--freq", "5e-324"], "4.94066e-324"),
    ({}, ["spectrum", "--start", "1e-300", "--stop", "1e-299", "--points", "4"], "1e-300"),
    ({"lf_knee": 1e300}, ["criteria"], "3.5e+06"),
    ({"lf_knee": 1e300}, ["spectrum", "--start", "1e5", "--points", "50"], "100000"),
    # synth checks its band's ends, fs/n and, for a negative exponent, fs/2,
    # before it allocates the record
    ({"lf_knee": 1e300}, ["synth", "--mode", "plus", "--n-samples", "1024"], "24414.1"),
    ({"lf_exponent": -200}, ["synth", "--mode", "plus", "--n-samples", "1024"], "1.25e+07"),
])
def test_a_model_value_beyond_the_float_range_names_its_term(tmp_path, capsys, noise, argv, at):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"noise": noise}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--config", path, "--out", tmp_path / "out", *argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"numerical error: the plus mode's model spectrum is inf at {at} Hz: its low-frequency "
        "term noise.lf_amp (noise.lf_knee / f)^noise.lf_exponent leaves the float range\n"
    )
    assert not (tmp_path / "out").exists()


def test_synth_of_the_shot_reference_skips_the_model(tmp_path):
    path = tmp_path / "knee.json"
    path.write_text(json.dumps({"noise": {"lf_knee": 1e300}}))
    assert run("--config", path, "--out", tmp_path, "synth", "--mode", "shot",
               "--n-samples", 1024) == 0
    assert run("--config", path, "--out", tmp_path, "synth", "--n-samples", 1024) == 3


def test_a_switched_off_low_frequency_term_is_not_nan(tmp_path, capsys):
    # 0 x the overflowing power law was NaN, with a warning, and exit 3
    path = tmp_path / "off.json"
    path.write_text(json.dumps({"noise": {"lf_knee": 1e300, "lf_amp": 0}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--config", path, "--out", tmp_path, "criteria") == 0
        assert run("--config", path, "--out", tmp_path, "synth", "--n-samples", 1024) == 0
    assert capsys.readouterr().err == ""


def test_a_clamped_model_below_a_huge_knee_is_shot_noise(tmp_path, capsys):
    path = tmp_path / "knee.json"
    path.write_text(json.dumps({"noise": {"lf_knee": 1e300}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--config", path, "--out", tmp_path, "pulsed", "--model", "minus",
                   "--assume-feedback") == 0
    assert "improvement factor  : 1.000000\n" in capsys.readouterr().out


def test_criteria_at_a_huge_frequency_warns_nothing(tmp_path, capsys):
    # far from the relaxation peak its Lorentzian's denominator overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--out", tmp_path, "criteria", "--freq", 1e300) == 0
    assert "inseparability (detected, dark-corrected) at 1e+300 Hz: 1.0000" in (
        capsys.readouterr().out)


def test_criteria_lossless_state_near_threshold_is_physical(tmp_path, capsys):
    # S- S+ = 1 here; an eigenvalue test with an absolute tolerance rounds
    # it to a violation of about -7e-9
    path = tmp_path / "lossless.json"
    path.write_text(json.dumps({"opo": {"pump_ratio": 0.99999, "escape_efficiency": 1.0}}))
    assert run("--config", path, "--out", tmp_path, "criteria", "--freq", 7869.5) == 0
    assert "covariance physical at 7869.5 Hz: True (physical)" in capsys.readouterr().out
    doc = json.loads((tmp_path / "criteria_report.json").read_text())
    assert doc["physical"] is True
    assert doc["physicality_detail"] == "physical"


def test_criteria_on_a_lossless_chain_at_threshold(tmp_path, capsys):
    # no loss and no excess noise: the detected minus mode is 0 to rounding,
    # and the inseparability with it
    path = tmp_path / "lossless.json"
    path.write_text(json.dumps({
        "opo": {"pump_ratio": 0.999999999999, "cavity_hwhm": 1e300, "escape_efficiency": 1},
        "noise": {"relax_amp_plus": 0, "relax_amp_minus": 0, "lf_amp": 0},
        "detection": {"quantum_efficiency": 1, "visibility": 1},
    }))
    assert run("--config", path, "--out", tmp_path, "criteria") == 0
    assert "inseparability (detected, dark-corrected) at 3.5e+06 Hz: 0.0000" in (
        capsys.readouterr().out)


def test_criteria_reports_a_violated_uncertainty_relation(tmp_path, capsys, monkeypatch):
    # no OPO state violates it, so hand criteria an anti-squeezed variance of 0.5
    monkeypatch.setattr(cli, "antisqueezed_variance", lambda params, f: 0.5)
    assert run("--out", tmp_path, "criteria", "--freq", 3.5e6) == 0
    doc = json.loads((tmp_path / "criteria_report.json").read_text())
    jsonschema.validate(doc, schema("criteria_report.schema.json"))
    s_sq = sqzsim.squeezed_variance(default_config().opo, 3.5e6)
    assert doc["physical"] is False
    assert doc["physicality_detail"] == f"violates uncertainty relation (S- S+ = {s_sq * 0.5!r})"
    assert "3.5e+06 Hz: False (violates uncertainty relation" in capsys.readouterr().out


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter in which any scipy import raises; this one has
    # imported scipy for other tests
    script = """
import sys, threading
sys.modules["scipy"] = None
from sqzsim.cli import main
from sqzsim.pulsed import _lobe_table

# the near-field lobe table is built on first use, not at import
assert _lobe_table.cache_info().currsize == 0
out = sys.argv[1]
# no thread outlives its command
def run(*argv):
    before = threading.enumerate()
    assert main(["--out", out, "--seed", "1", *argv]) == 0, argv
    assert threading.enumerate() == before, argv
run("pulsed", "--example")
# np.unique would import numpy.ma on its first call
assert "numpy.ma" not in sys.modules
for argv in (["spectrum", "--points", "64"], ["synth", "--n-samples", "4096"],
             ["analyze", out + "/timeseries_minus.sqts"], ["criteria"]):
    run(*argv)
# no executor or pool is imported, and the Gauss-Legendre rules are written
# out, not taken from numpy.polynomial
for name in ("concurrent.futures", "multiprocessing", "numpy.polynomial"):
    assert name not in sys.modules, name
"""
    fresh_python(script, tmp_path)


def test_cli_binds_the_layers_it_calls():
    # the traced benchmark run swaps these module-level names for probes
    for name in (
        "total_spectrum", "observe", "observe_corrected", "observed_relative_to_shot",
        "pulsed_variance_with_error", "synthesize", "welch_psd", "emulate_sweep",
        "write_timeseries", "read_timeseries",
    ):
        assert getattr(cli, name) is getattr(sqzsim, name), name
