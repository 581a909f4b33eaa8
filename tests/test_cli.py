import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import sqzsim
from sqzsim import cli
from sqzsim.cli import main
from sqzsim.config import default_config, load_config

REPO = Path(__file__).resolve().parents[1]


def schema(name):
    return json.loads((REPO / "schemas" / name).read_text())


def run(*argv):
    return main([str(a) for a in argv])


def fresh_python(script, *argv):
    """Run script in a new interpreter that imports this checkout's sqzsim;
    return its stdout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def test_spectrum_emits_expected_files(tmp_path):
    assert run("--out", tmp_path, "--seed", 3, "spectrum", "--points", 64) == 0
    for name in (
        "spectrum_analytic.csv",
        "inseparability.csv",
        "trace_plus.csv",
        "trace_plus.json",
        "trace_minus.csv",
        "trace_minus.json",
        "trace_plus_corrected.csv",
        "trace_plus_corrected.json",
        "trace_minus_corrected.csv",
        "trace_minus_corrected.json",
    ):
        assert (tmp_path / name).exists(), name
    doc = json.loads((tmp_path / "trace_minus.json").read_text())
    jsonschema.validate(doc, schema("trace.schema.json"))
    header = (tmp_path / "trace_minus.csv").read_text().splitlines()[0]
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


def test_pulsed_long_window_on_clamped_model(tmp_path):
    assert run("--out", tmp_path, "pulsed", "--model", "minus",
               "--assume-feedback", "--T", 1e-3) == 0
    doc = json.loads((tmp_path / "pulsed_report.json").read_text())
    jsonschema.validate(doc, schema("pulsed_report.schema.json"))
    assert doc["quadrature_error"] <= 1e-6 * doc["pulsed_variance"]


@pytest.mark.parametrize("t, factor", [("1e-170", "1.995262"), ("1e-300", "1.995262"),
                                      ("1e160", "1.000000")])
def test_pulsed_example_at_extreme_windows(tmp_path, capsys, t, factor):
    # T^2 would under- or overflow at these windows; the engine works in lobes
    assert run("--out", tmp_path, "pulsed", "--example", f"--T={t}") == 0
    assert f"improvement factor  : {factor}" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["plus", "minus"])
def test_pulsed_model_at_a_window_reaching_past_float_squares(tmp_path, capsys, mode):
    # the near field runs to 1000 / T = 1e173 Hz, where S = 1
    assert run("--out", tmp_path, "pulsed", "--model", mode, "--assume-feedback",
               "--T", 1e-170) == 0
    assert "improvement factor  : 1.000000" in capsys.readouterr().out


# 5e-324 is positive, but 1000 / T, where the near field ends, overflows
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


def test_pulsed_conflicting_sources(tmp_path):
    assert run("--out", tmp_path, "pulsed", "--flat", 1.0, "--example") == 2


def test_synth_analyze_round_trip(tmp_path):
    out = tmp_path / "out"
    assert run("--out", out, "--seed", 11, "synth", "--mode", "shot",
               "--n-samples", 2**16, "--sample-rate", 25e6) == 0
    rec = out / "timeseries_shot.sqts"
    assert rec.exists()
    assert run("--out", out, "analyze", rec, "--rbw", 4e5) == 0
    doc = json.loads((out / "trace_analyzed.json").read_text())
    jsonschema.validate(doc, schema("trace.schema.json"))


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


def test_detected_record_adds_the_dark_noise_of_one_draw():
    # the electronic noise goes in a block at a time; the record must equal
    # the shaped series plus sqrt(dark) times one standard_normal(n) draw
    cfg = default_config()
    n = 4 * cli._DARK_BLOCK_SAMPLES
    shaped_seed, dark_seed = cli._sub_seeds(cfg.require_seed(), 2)
    shaped = sqzsim.synthesize(sqzsim.Spectrum.flat(1.0), 25e6, n, shaped_seed).samples
    dark = np.random.default_rng(dark_seed).standard_normal(n)
    want = shaped + math.sqrt(cfg.detection.dark_linear) * dark
    got = cli.detected_record(cfg, "shot", 25e6, n).samples
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("given", ["nan", "inf", "-inf", "1.5", "0", "1", "3", "-4", "65537"])
def test_synth_rejects_n_samples_that_are_not_powers_of_two(tmp_path, capsys, monkeypatch,
                                                          given):
    monkeypatch.setattr(cli, "synthesize", _must_not_run)
    assert run("--out", tmp_path, "--seed", 1, "synth", f"--n-samples={given}") == 2
    err = capsys.readouterr().err
    assert "'--n-samples'" in err and f"got {given}" in err


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
    assert f"'{flag}'" in err and "finite" in err


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in (
        "relax_center", "relax_fwhm", "relax_amp_plus", "relax_amp_minus", "lf_knee",
        "lf_exponent", "lf_amp",
    ) for value in (math.nan, math.inf)),
    ("relax_center", 0.0),
    ("relax_center", -1e6),
])
def test_noise_values_out_of_domain_are_config_errors(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"noise": {field: value}}))
    assert run("--config", path, "--out", tmp_path, "pulsed", "--model", "minus",
               "--assume-feedback") == 2
    assert f"key 'noise': {field} must be finite" in capsys.readouterr().err


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter in which any scipy import raises; this one has
    # imported scipy for other tests
    script = """
import sys
sys.modules["scipy"] = None
from sqzsim.cli import main
# the Gauss-Legendre rule is built on first use, with numpy.polynomial
assert "numpy.polynomial" not in sys.modules
from sqzsim.pulsed import _lobe_table

# the near-field lobe table is built on first use, not at import
assert _lobe_table.cache_info().currsize == 0
out = sys.argv[1]
assert main(["--out", out, "--seed", "1", "pulsed", "--example"]) == 0
# np.unique would import numpy.ma on its first call
assert "numpy.ma" not in sys.modules
for argv in (["spectrum", "--points", "64"], ["synth", "--n-samples", "4096"],
             ["analyze", out + "/timeseries_minus.sqts"], ["criteria"]):
    assert main(["--out", out, "--seed", "1", *argv]) == 0, argv
# synthesis draws on a plain threading.Thread, not an executor or a pool
for name in ("concurrent.futures", "multiprocessing"):
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
