"""Command-line front end.

    sqzsim [--config FILE] [--seed N] [--out DIR] [--format csv|json] CMD ...

Commands: spectrum, pulsed, synth, analyze, criteria. Exit codes: 0 ok,
2 configuration error, 3 numerical error, 4 I/O error. Every command is
deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .classical_noise import total_spectrum
from .config import ConfigError, RunConfig, _build_section, default_config, keyed, load_config
from .detection import (
    effective_efficiency,
    observe,
    observe_corrected,
    observed_relative_to_shot,
    to_db,
)
from .dsp import (
    SweepConfig,
    TimeSeries,
    Trace,
    emulate_sweep,
    normalize_to_shot,
    record_grid,
    synthesize,
    welch_psd,
)
from .fileio import (
    TimeSeriesFormatError,
    read_timeseries,
    write_csv,
    write_timeseries,
    write_trace_csv,
    write_trace_json,
)
from .opo import antisqueezed_variance, squeezed_variance
from .pulsed import (
    PiecewiseSpectrum,
    PulsedWindow,
    clamp_to_shot_below,
    flat_window_variance,
    pulsed_variance_with_error,
)
from .quantum import duan_inseparability, obeys_uncertainty
from .spectra import Spectrum, in_domain

# peak memory of `synth` in record sizes (8 bytes per sample), above the
# import baseline; measured with numpy 2.4 on Linux x86-64: 4.2x (165 MB peak
# for a 32 MB record at n = 2^22, 31 MB after import; 4.8x at n = 2^20, where
# the fixed overhead weighs more), plus a margin. The peak falls inside
# irfft: the Fourier bins are one record and are the only record-sized array
# before it, and irfft adds about three more, its output and its scratch.
SYNTH_PEAK_PER_RECORD = 6

# peak memory of `spectrum` in bytes per grid point, above the import
# baseline: eight float64 rows of the 257-point RBW kernel, as rbw_convolve
# holds several n_points x 257 arrays at once. Measured with numpy 2.4 on
# Linux x86-64: 12.7 kB (about six rows) per point from 8,000 to 32,000
# points (110 MB and 415 MB peaks), 13.7 kB per point at 8,000, where the
# fixed overhead weighs more, plus a margin.
SPECTRUM_PEAK_PER_POINT = 8 * 257 * 8

# piecewise model of the stabilized source: shot-limited below 50 kHz,
# 3 dB squeezed above; its published improvement estimate for T = 1 us
EXAMPLE_PIECEWISE = PiecewiseSpectrum(
    breakpoints=(50e3,), values=(1.0,), tail_value=10 ** (-3 / 10)
)
EXAMPLE_REFERENCE_FACTOR = 1.7


def _finite_positive(flag: str, value: float, what: str) -> float:
    """The value of a float flag, or a ConfigError naming the flag."""
    with keyed(flag):
        return in_domain(what, value, "(0, inf)")


@contextlib.contextmanager
def _peak_memory(key: str, what: str, need: int):
    """Run a block whose peak memory is estimated at need bytes.

    A ConfigError naming the key if need exceeds the physical memory, raised
    before anything of that size is allocated. An allocation can still fail
    below it, as under an address-space limit (ulimit -v); the MemoryError
    then names the key and the estimate as well.
    """
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"key '{key}': {what} needs about {need} bytes at peak, more than "
            f"the {have} bytes of physical memory"
        )
    try:
        yield
    except MemoryError as exc:
        # numpy's names the size it could not allocate; Python's own is empty
        raise MemoryError(
            f"key '{key}': {what}, about {need / 2**20:.0f} MiB at peak: "
            f"{str(exc) or 'an allocation failed'}"
        ) from exc


# the records' sub-seeds, in this order; generate_state is prefix-stable, so
# a mode added at the end never changes the others' records
RECORD_MODES = ("plus", "minus", "shot")


def _sub_seeds(seed: int, n: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_trace(trace: Trace, out: Path, stem: str, fmt: str | None) -> list[Path]:
    paths = []
    if fmt in (None, "csv"):
        paths.append(out / f"{stem}.csv")
        write_trace_csv(paths[-1], trace)
    if fmt in (None, "json"):
        paths.append(out / f"{stem}.json")
        write_trace_json(paths[-1], trace)
    return paths


def _mode_spectra(cfg: RunConfig):
    """Source spectra of both modes and their dark-corrected detected views."""
    src = {m: total_spectrum(cfg.opo, cfg.noise, m) for m in ("plus", "minus")}
    return src, {m: observe_corrected(s, cfg.detection) for m, s in src.items()}


def _model_values(src: dict, f) -> dict:
    """Each mode's source spectrum at f. A value beyond the float range is a
    ValueError naming the mode, the frequency and the low-frequency term, the
    only one that can overflow: the relaxation Lorentzian falls to 0 and the
    OPO term is clamped."""
    values = {mode: spectrum(f) for mode, spectrum in src.items()}
    for mode, v in values.items():
        bad = ~np.isfinite(np.atleast_1d(v))
        if bad.any():
            raise ValueError(
                f"the {mode} mode's model spectrum is {np.atleast_1d(v)[bad][0]} at "
                f"{np.atleast_1d(f)[bad][0]:.6g} Hz: its low-frequency term noise.lf_amp "
                "(noise.lf_knee / f)^noise.lf_exponent leaves the float range"
            )
    return values


def _inseparability(spectra: dict, f):
    return duan_inseparability(spectra["plus"](f), spectra["minus"](f))


def _sweep_config(cfg: RunConfig, args) -> SweepConfig:
    """The config's analyzer settings with the typed flags put in one at a
    time, so that SweepConfig's refusal names the flag. A start at or above
    the config's stop goes in after --stop, and a vbw above its rbw after
    --rbw: then each step is valid if the final settings are."""
    sweep = cfg.analyzer
    order = [("start", "--start", args.start), ("stop", "--stop", args.stop),
             ("n_points", "--points", args.points),
             ("vbw", "--vbw", args.vbw), ("rbw", "--rbw", args.rbw)]
    if args.start is not None and args.start >= sweep.stop:
        order[0], order[1] = order[1], order[0]
    if args.vbw is not None and args.vbw > sweep.rbw:
        order[3], order[4] = order[4], order[3]
    for name, flag, value in order:
        if value is not None:
            with keyed(flag):
                sweep = dataclasses.replace(sweep, **{name: value})
    return sweep


def cmd_spectrum(cfg: RunConfig, args) -> None:
    sweep = _sweep_config(cfg, args)
    with _peak_memory("--points" if args.points is not None else "analyzer",
                      f"a grid of n_points = {sweep.n_points}",
                      SPECTRUM_PEAK_PER_POINT * sweep.n_points):
        modes = ("plus", "minus") if args.mode == "both" else (args.mode,)
        freqs = sweep.freqs

        src, det = _mode_spectra(cfg)
        values = _model_values(src, freqs)

        out = _out_dir(cfg)
        written = [
            write_csv(
                out / "spectrum_analytic.csv",
                "freq_hz,s_plus,s_minus,s_plus_detected,s_minus_detected",
                (freqs, values["plus"], values["minus"], det["plus"](freqs), det["minus"](freqs)),
            )
        ]

        written.append(
            write_csv(out / "inseparability.csv", "freq_hz,inseparability",
                      (freqs, _inseparability(det, freqs)))
        )

        # sub-seeds 0/1 drive the plain plus/minus traces and 2/3 the
        # dark-corrected ones; generate_state is prefix-stable, so drawing more
        # words never changes the first ones
        seeds = _sub_seeds(cfg.require_seed(), 4)
        for k, mode in enumerate(("plus", "minus")):
            if mode not in modes:
                continue
            views = (("", observed_relative_to_shot(src[mode], cfg.detection)),
                     ("_corrected", det[mode]))
            for (suffix, spectrum), seed in zip(views, seeds[k::2]):
                trace = emulate_sweep(spectrum, sweep, seed)
                written += _emit_trace(trace, out, f"trace_{mode}{suffix}", args.format)

    for p in written:
        print(p)


def _pulsed_spectrum(cfg: RunConfig, args):
    chosen = [
        name
        for name, val in (
            ("--flat", args.flat),
            ("--piecewise", args.piecewise),
            ("--example", args.example),
            ("--model", args.model),
        )
        if val
    ]
    if len(chosen) > 1:
        raise ConfigError(f"choose one spectrum source, got {' and '.join(chosen)}")
    if args.assume_feedback and chosen not in ([], ["--model"]):
        raise ConfigError(f"key '--assume-feedback': it clamps the model spectrum only "
                          f"and cannot go with {chosen[0]}")
    if args.flat is not None:
        _finite_positive("--flat", args.flat, "level")
        return Spectrum.flat(args.flat), f"flat {args.flat:g}"
    if args.piecewise is not None:
        with keyed("--piecewise"):
            doc = json.loads(args.piecewise)
        return _build_section("--piecewise", PiecewiseSpectrum, doc), "piecewise (inline)"
    if args.example:
        return EXAMPLE_PIECEWISE, "example: shot-limited below 50 kHz, 3 dB squeezed above"
    mode = args.model or "minus"
    spec = _mode_spectra(cfg)[1][mode]
    desc = f"detected model spectrum ({mode} mode)"
    if args.assume_feedback:
        spec = clamp_to_shot_below(spec, cfg.noise.lf_knee)
        desc += ", feedback-clamped below the knee"
    return spec, desc


def _readable(x: float) -> str:
    """x to six decimals, in exponent form where fixed point would show it
    as zeros or as hundreds of digits."""
    return f"{x:.6f}" if 1e-4 <= abs(x) < 1e6 else f"{x:.6e}"


def cmd_pulsed(cfg: RunConfig, args) -> None:
    with keyed("--T"):
        window = PulsedWindow(duration=args.T)
    spectrum, desc = _pulsed_spectrum(cfg, args)

    value, err = pulsed_variance_with_error(spectrum, window)
    flat_ref = flat_window_variance(1.0, window)
    # a variance beyond the float range reads inf or 0, and a subnormal one
    # can overflow its improvement factor: refuse both before any output
    if not (0 < value < math.inf and flat_ref / value < math.inf):
        raise ValueError(
            f"the window variance at T = {window.duration:g} s is {value!r}: it and "
            "its improvement factor must be finite and positive floats"
        )
    report = {
        "window_duration_s": window.duration,
        "spectrum": desc,
        "pulsed_variance": value,
        "flat_variance": flat_ref,
        "normalized_ratio": value / flat_ref,
        "improvement_factor": flat_ref / value,
        "quadrature_error": err,
        "assume_feedback": bool(args.assume_feedback),
    }
    if args.example:
        report["reference_factor"] = EXAMPLE_REFERENCE_FACTOR

    print(f"spectrum            : {desc}")
    print(f"window duration     : {window.duration:.6g} s")
    print(f"pulsed variance     : {value:.9e}")
    print(f"shot-limited value  : {flat_ref:.9e}  (T/2)")
    print(f"normalized ratio    : {_readable(report['normalized_ratio'])}")
    print(f"improvement factor  : {_readable(report['improvement_factor'])}")
    if args.example:
        print(f"reference factor    : {EXAMPLE_REFERENCE_FACTOR}")
    print(f"quadrature error    : {err:.3e}")

    out = _out_dir(cfg)
    path = out / "pulsed_report.json"
    path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    print(path)


def detected_record(
    cfg: RunConfig, mode: str, sample_rate: float, n_samples: int
) -> TimeSeries:
    """Photocurrent record of one mode ("plus", "minus") or of the blocked
    source ("shot"), as the detector delivers it.

    The source's observed spectrum, losses and electronic floor included,
    is shaped into one series from the mode's own sub-seed, so that records
    of one seed are independent. The record carries cfg's seed.
    """
    seed = cfg.require_seed()
    source = Spectrum.flat(1.0) if mode == "shot" else total_spectrum(cfg.opo, cfg.noise, mode)
    detected = observe(source, cfg.detection)
    sub_seed = _sub_seeds(seed, len(RECORD_MODES))[RECORD_MODES.index(mode)]
    ts = synthesize(detected, sample_rate, n_samples, sub_seed)
    return dataclasses.replace(ts, seed=seed)


def cmd_synth(cfg: RunConfig, args) -> None:
    with keyed("--sample-rate", n_samples="--n-samples"):
        n, df = record_grid(args.sample_rate, args.n_samples)
    if args.mode != "shot":
        # the low-frequency term is monotone in f and the others are bounded,
        # so a model value beyond the float range shows at the band's ends,
        # taken as synthesize takes them
        _model_values({args.mode: total_spectrum(cfg.opo, cfg.noise, args.mode)},
                      np.array([df, n // 2 * df]))
    record = 8 * n
    with _peak_memory("--n-samples", f"a record of {n} samples ({record} bytes)",
                      SYNTH_PEAK_PER_RECORD * record):
        ts = detected_record(cfg, args.mode, args.sample_rate, n)
        out = _out_dir(cfg)
        path = out / f"timeseries_{args.mode}.sqts"
        write_timeseries(path, ts)
    print(path)


def _trace_from_welch(ts: TimeSeries, rbw: float, name: str) -> Trace:
    psd = welch_psd(ts, rbw)
    freqs, values = psd.freqs[1:], psd.values[1:]  # DC bin carries no signal
    empty = np.flatnonzero(values <= 0)  # a PSD is >= 0, so these bins hold no power
    if empty.size:
        raise ValueError(f"{name} has no power at {freqs[empty[0]]:.6g} Hz, "
                         "where a dB trace needs a positive PSD")
    return Trace(freqs=freqs, values_db=to_db(values), rbw=rbw, vbw=rbw)


def cmd_analyze(cfg: RunConfig, args) -> None:
    rbw = cfg.analyzer.rbw if args.rbw is None else _finite_positive("--rbw", args.rbw, "rbw")
    # an rbw at or above 2 fs names its key; a record too short for it is exit 3
    with keyed(rbw="analyzer" if args.rbw is None else "--rbw"):
        trace = _trace_from_welch(read_timeseries(args.input), rbw, f"record {args.input}")
        shot = (_trace_from_welch(read_timeseries(args.shot), rbw, f"--shot record {args.shot}")
                if args.shot else None)
    out = _out_dir(cfg)
    written = _emit_trace(trace, out, "trace_analyzed", args.format)
    if args.shot:
        written += _emit_trace(
            normalize_to_shot(trace, shot), out, "trace_normalized", args.format
        )
    for p in written:
        print(p)


def _falling_crossing(g, lo: float, hi: float) -> float:
    """Where g falls through zero in [lo, hi], given g(lo) > 0 > g(hi).

    Bisection until the midpoint rounds onto an end: the result is a zero of
    g, or the last float with g > 0, whose next float up has g < 0. This is
    exact to rounding, and needs no root-finding library.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        gm = g(mid)
        if gm > 0:
            lo = mid
        elif gm < 0:
            hi = mid
        else:
            return mid


def cmd_criteria(cfg: RunConfig, args) -> None:
    f0 = _finite_positive("--freq", args.freq, "frequency")

    src, det = _mode_spectra(cfg)
    _model_values(src, f0)
    insep_det = _inseparability(det, f0)
    insep_src = _inseparability(src, f0)

    # physicality of the source OPO state, in closed form
    s_sq = squeezed_variance(cfg.opo, f0)
    s_anti = antisqueezed_variance(cfg.opo, f0)
    physical = obeys_uncertainty(s_sq, s_anti)
    detail = ("physical" if physical
              else f"violates uncertainty relation (S- S+ = {s_sq * s_anti!r})")

    crossings = {}
    lo, hi = 5e3, min(5e5, 0.8 * cfg.noise.relax_center)
    for mode in ("plus", "minus"):
        g = lambda f: src[mode](f) - 1.0
        if g(lo) > 0 > g(hi):
            crossings[mode] = _falling_crossing(g, lo, hi)
        else:
            crossings[mode] = None

    report = {
        "frequency_hz": f0,
        "inseparability_detected": float(insep_det),
        "inseparability_source": float(insep_src),
        "effective_detection_efficiency": effective_efficiency(cfg.detection),
        "snl_crossing_hz": crossings,
        "physical": physical,
        "physicality_detail": detail,
    }

    print(f"inseparability (detected, dark-corrected) at {f0:.6g} Hz: {insep_det:.4f}")
    print(f"inseparability (source) at {f0:.6g} Hz: {insep_src:.4f}")
    for mode, fx in crossings.items():
        shown = (f"{fx / 1e3:.2f} kHz" if fx
                 else f"not bracketed in [{lo / 1e3:g}, {hi / 1e3:g}] kHz")
        print(f"shot-noise-limit crossing ({mode} mode): {shown}")
    print(f"covariance physical at {f0:.6g} Hz: {physical} ({detail})")

    out = _out_dir(cfg)
    path = out / "criteria_report.json"
    path.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    print(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzsim",
        description=(
            "Simulate the noise spectra, entanglement figures and pulsed-"
            "measurement gain of a below-threshold OPO squeezing source."
        ),
    )
    parser.add_argument("--config", metavar="FILE", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="seed for stochastic commands (u64)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument(
        "--format", choices=("csv", "json"), help="trace format (default: both)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="analytic spectra, emulated traces, inseparability")
    p.add_argument("--start", type=float, help="band start in Hz")
    p.add_argument("--stop", type=float, help="band stop in Hz")
    p.add_argument("--points", type=int, help="grid points")
    p.add_argument("--rbw", type=float, help="resolution bandwidth in Hz")
    p.add_argument("--vbw", type=float, help="video bandwidth in Hz")
    p.add_argument("--mode", choices=("plus", "minus", "both"), default="both")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pulsed", help="windowed-measurement variance and improvement")
    p.add_argument("--T", type=float, default=1e-6, help="window duration in s")
    p.add_argument("--flat", type=float, help="flat spectrum level")
    p.add_argument("--piecewise", help='inline JSON {"breakpoints":..,"values":..,"tail_value":..}')
    p.add_argument("--example", action="store_true",
                   help="built-in worked example (shot below 50 kHz, 3 dB squeezed above)")
    p.add_argument("--model", choices=("plus", "minus"),
                   help="detected model spectrum for this mode")
    p.add_argument("--assume-feedback", action="store_true",
                   help="clamp the model spectrum to shot noise below the knee")
    p.set_defaults(func=cmd_pulsed)

    p = sub.add_parser("synth", help="synthesize a photocurrent record")
    p.add_argument("--mode", choices=RECORD_MODES, default="minus")
    p.add_argument("--n-samples", type=float, default=2**22)
    p.add_argument("--sample-rate", type=float, default=25e6)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="Welch-estimate a recorded time series")
    p.add_argument("input", help="time-series file (.sqts)")
    p.add_argument("--rbw", type=float, help="resolution bandwidth in Hz")
    p.add_argument("--shot", help="shot-reference time series for normalization")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("criteria", help="entanglement and squeezing figures of merit")
    p.add_argument("--freq", type=float, default=3.5e6, help="evaluation frequency in Hz")
    p.set_defaults(func=cmd_criteria)

    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed  # RunConfig checks its range
    if args.out is not None:
        updates["out_dir"] = args.out
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        args.func(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TimeSeriesFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, RuntimeError, RuntimeWarning) as exc:
        # a RuntimeWarning arrives here when warnings are errors (python -W error)
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's names the size it could not allocate; Python's own is empty
        detail = str(exc) or "an allocation failed"
        print(f"numerical error: out of memory in {args.command}: {detail}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
