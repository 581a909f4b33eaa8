"""Command-line front end.

    sqzsim [--config FILE] [--seed N] [--out DIR] [--format csv|json] CMD ...

Commands: spectrum, pulsed, synth, analyze, criteria. Exit codes: 0 ok,
2 configuration error, 3 numerical error, 4 I/O error. Every command is
deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .classical_noise import total_spectrum
from .config import ConfigError, RunConfig, default_config, load_config
from .detection import (
    effective_efficiency,
    observe,
    observe_corrected,
    observed_relative_to_shot,
)
from .dsp import (
    SweepConfig,
    TimeSeries,
    Trace,
    emulate_sweep,
    normalize_to_shot,
    synthesize,
    welch_psd,
)
from .fileio import (
    TimeSeriesFormatError,
    read_timeseries,
    write_timeseries,
    write_trace_csv,
    write_trace_json,
)
from .opo import spectral_covariance
from .pulsed import (
    PiecewiseSpectrum,
    PulsedWindow,
    clamp_to_shot_below,
    flat_window_variance,
    pulsed_variance_with_error,
)
from .quantum import ModeVariancePair, check_physicality, duan_inseparability
from .spectra import Spectrum

# peak memory of `synth` in record sizes (8 bytes per sample), above the
# import baseline; measured with numpy 2.4 on Linux x86-64: 4.2x (165 MB peak
# for a 32 MB record at n = 2^22, 31 MB after import; 4.8x at n = 2^20, where
# the fixed overhead weighs more), plus a margin. The peak falls inside
# irfft: the Fourier bins are one record and are the only record-sized array
# before it, and irfft adds about three more, its output and its scratch.
SYNTH_PEAK_PER_RECORD = 6

# the electronic noise of a detected record is drawn this many samples at a
# time, so it needs no record-sized temporary
_DARK_BLOCK_SAMPLES = 1 << 16

# piecewise model of the stabilized source: shot-limited below 50 kHz,
# 3 dB squeezed above; its published improvement estimate for T = 1 us
EXAMPLE_PIECEWISE = PiecewiseSpectrum(
    breakpoints=(50e3,), values=(1.0,), tail_value=10 ** (-3 / 10)
)
EXAMPLE_REFERENCE_FACTOR = 1.7


def _finite_positive(flag: str, value: float, what: str) -> float:
    """The value of a float flag, or a ConfigError naming the flag."""
    if not 0 < value < math.inf:
        raise ConfigError(f"key '{flag}': {what} must be finite and positive, got {value}")
    return value


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


def _write_csv(path: Path, header: str, columns) -> Path:
    rows = np.column_stack(columns)
    lines = [header] + [",".join(f"{v:.10g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _mode_spectra(cfg: RunConfig):
    """Source spectra of both modes and their dark-corrected detected views."""
    src = {m: total_spectrum(cfg.opo, cfg.noise, m) for m in ("plus", "minus")}
    return src, {m: observe_corrected(s, cfg.detection) for m, s in src.items()}


def _inseparability(spectra: dict, f):
    return duan_inseparability(
        ModeVariancePair(s_plus=spectra["plus"](f), s_minus=spectra["minus"](f))
    )


def _sweep_config(cfg: RunConfig, args) -> SweepConfig:
    fields = {f.name: getattr(cfg.analyzer, f.name) for f in dataclasses.fields(SweepConfig)}
    for name, flag, arg in (
        ("start", "--start", args.start),
        ("stop", "--stop", args.stop),
        ("rbw", "--rbw", args.rbw),
        ("vbw", "--vbw", args.vbw),
    ):
        if arg is not None:
            fields[name] = _finite_positive(flag, arg, "frequency")
    if args.points is not None:
        fields["n_points"] = args.points
    try:
        return SweepConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"key 'analyzer': {exc}") from exc


def cmd_spectrum(cfg: RunConfig, args) -> None:
    sweep = _sweep_config(cfg, args)
    out = _out_dir(cfg)
    modes = ("plus", "minus") if args.mode == "both" else (args.mode,)
    freqs = sweep.freqs

    src, det = _mode_spectra(cfg)

    written = [
        _write_csv(
            out / "spectrum_analytic.csv",
            "freq_hz,s_plus,s_minus,s_plus_detected,s_minus_detected",
            (freqs, src["plus"](freqs), src["minus"](freqs),
             det["plus"](freqs), det["minus"](freqs)),
        )
    ]

    written.append(
        _write_csv(out / "inseparability.csv", "freq_hz,inseparability",
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
    if args.flat is not None:
        _finite_positive("--flat", args.flat, "level")
        return Spectrum.flat(args.flat), f"flat {args.flat:g}"
    if args.piecewise is not None:
        try:
            doc = json.loads(args.piecewise)
            spec = PiecewiseSpectrum(
                breakpoints=tuple(doc["breakpoints"]),
                values=tuple(doc["values"]),
                tail_value=doc["tail_value"],
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"key '--piecewise': {exc}") from exc
        return spec, "piecewise (inline)"
    if args.example:
        return EXAMPLE_PIECEWISE, "example: shot-limited below 50 kHz, 3 dB squeezed above"
    mode = args.model or "minus"
    spec = _mode_spectra(cfg)[1][mode]
    desc = f"detected model spectrum ({mode} mode)"
    if args.assume_feedback:
        spec = clamp_to_shot_below(spec, cfg.noise.lf_knee)
        desc += ", feedback-clamped below the knee"
    return spec, desc


def cmd_pulsed(cfg: RunConfig, args) -> None:
    try:
        window = PulsedWindow(duration=args.T)
    except ValueError as exc:
        raise ConfigError(f"key '--T': {exc}") from exc
    spectrum, desc = _pulsed_spectrum(cfg, args)

    value, err = pulsed_variance_with_error(spectrum, window)
    flat_ref = flat_window_variance(1.0, window)
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
    print(f"normalized ratio    : {report['normalized_ratio']:.6f}")
    print(f"improvement factor  : {report['improvement_factor']:.6f}")
    if args.example:
        print(f"reference factor    : {EXAMPLE_REFERENCE_FACTOR}")
    print(f"quadrature error    : {err:.3e}")

    out = _out_dir(cfg)
    path = out / "pulsed_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(path)


def detected_record(
    cfg: RunConfig, mode: str, sample_rate: float, n_samples: int
) -> TimeSeries:
    """Photocurrent record of one mode ("plus", "minus") or of the blocked
    source ("shot"), as the detector delivers it.

    The losses and the signal are shaped into one series from sub-seed 0;
    the electronic noise is added as independent white samples from
    sub-seed 1. The record carries cfg's seed.
    """
    seed = cfg.require_seed()
    shaped_seed, dark_seed = _sub_seeds(seed, 2)
    if mode == "shot":
        base = Spectrum.flat(1.0)
    else:
        lossless_dark = dataclasses.replace(cfg.detection, dark_noise_db=-math.inf)
        base = observe(total_spectrum(cfg.opo, cfg.noise, mode), lossless_dark)
    samples = synthesize(base, sample_rate, n_samples, shaped_seed).samples
    dark = cfg.detection.dark_linear
    if dark > 0:
        # added in place, a block of normals at a time: consecutive blocks
        # continue one stream, so this equals one standard_normal(n_samples)
        rng = np.random.default_rng(dark_seed)
        block = np.empty(min(n_samples, _DARK_BLOCK_SAMPLES))
        for start in range(0, n_samples, block.size):
            chunk = block[: n_samples - start]
            rng.standard_normal(out=chunk)
            chunk *= math.sqrt(dark)
            samples[start : start + chunk.size] += chunk
    return TimeSeries(sample_rate=sample_rate, samples=samples, seed=seed)


def cmd_synth(cfg: RunConfig, args) -> None:
    given = args.n_samples
    n = int(given) if math.isfinite(given) and given == int(given) else 0
    if n < 2 or n & (n - 1):
        raise ConfigError(
            f"key '--n-samples': must be a power of two >= 2, got {given:.17g}"
        )
    _finite_positive("--sample-rate", args.sample_rate, "sample rate")
    record = 8 * n
    need = SYNTH_PEAK_PER_RECORD * record
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"key '--n-samples': a record of {n} samples ({record} bytes) needs "
            f"about {need} bytes at peak, more than the {have} bytes of physical memory"
        )
    ts = detected_record(cfg, args.mode, args.sample_rate, n)
    out = _out_dir(cfg)
    path = out / f"timeseries_{args.mode}.sqts"
    write_timeseries(path, ts)
    print(path)


def _trace_from_welch(ts: TimeSeries, rbw: float) -> Trace:
    psd = welch_psd(ts, rbw)
    freqs, values = psd.freqs[1:], psd.values[1:]  # DC bin carries no signal
    if np.any(values <= 0):
        raise ValueError("estimated PSD is not positive; record too short?")
    return Trace(freqs=freqs, values_db=10.0 * np.log10(values), rbw=rbw, vbw=rbw)


def cmd_analyze(cfg: RunConfig, args) -> None:
    rbw = cfg.analyzer.rbw if args.rbw is None else _finite_positive("--rbw", args.rbw, "rbw")
    ts = read_timeseries(args.input)
    trace = _trace_from_welch(ts, rbw)
    out = _out_dir(cfg)
    written = _emit_trace(trace, out, "trace_analyzed", args.format)
    if args.shot:
        shot = _trace_from_welch(read_timeseries(args.shot), rbw)
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
    insep_det = _inseparability(det, f0)
    insep_src = _inseparability(src, f0)

    phys = check_physicality(spectral_covariance(cfg.opo, f0))

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
        "physical": bool(phys),
        "physicality_detail": phys.detail,
    }

    print(f"inseparability (detected, dark-corrected) at {f0:.6g} Hz: {insep_det:.4f}")
    print(f"inseparability (source) at {f0:.6g} Hz: {insep_src:.4f}")
    for mode, fx in crossings.items():
        shown = (f"{fx / 1e3:.2f} kHz" if fx
                 else f"not bracketed in [{lo / 1e3:g}, {hi / 1e3:g}] kHz")
        print(f"shot-noise-limit crossing ({mode} mode): {shown}")
    print(f"covariance physical at {f0:.6g} Hz: {phys.ok} ({phys.detail})")

    out = _out_dir(cfg)
    path = out / "criteria_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
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
    p.add_argument("--mode", choices=("plus", "minus", "shot"), default="minus")
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
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"key 'seed': must fit in u64, got {args.seed}")
        updates["seed"] = args.seed
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
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
