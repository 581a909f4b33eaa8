#!/usr/bin/env python3
"""Benchmark for sqzsim: cold CLI, pulsed window sweep and record path.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
./src. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the gated
end-to-end figures, with --trace 1 the per-layer figures of a traced run.
See perfbench/README.md for the workloads, the metric definitions and the
timing normalization.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PY = sys.executable

WORKLOADS = ("cli_cold", "pulsed_sweep", "record_path")
# reference kernel matched to each workload's resource profile; set-up is
# interpreter start and imports everywhere, like a cold CLI call
REF_KIND = {"cli_cold": "imports", "pulsed_sweep": "quad", "record_path": "fft"}
SETUP_REF = "imports"
# what each kernel takes on the reference host (2-vCPU KVM guest, Python
# 3.11, numpy 2.4, scipy 1.17); a gated time is raw * REF_NOMINAL_S / ref,
# where ref is the mean of the two kernel runs adjacent to it
REF_NOMINAL_S = {"quad": 0.05, "imports": 1.35, "fft": 0.47}
# nominal seconds of one schedule unit (CLI cycle, sweep pass or record op)
# with its reference kernels; --seconds becomes the whole number of units
# that fills it, so the op count of a run depends on its arguments only
UNIT_S = {"cli_cold": 18.3, "pulsed_sweep": 15.0, "record_path": 2.65}
SETUP_SAMPLES = 3
TAIL_BEYOND = 10

CLI_RECORD_BYTES = 32 + 8 * (1 << 20)
RECORD_MB = 8 * (1 << 22) / 2**20
CLI_RECORD_MB = 8 * (1 << 20) / 2**20
INSEPARABILITY = (0.33, 0.005)
EXAMPLE_FACTOR = (1.8151, 1e-4)
MODEL_VARIANCE = (2.313355903746239e-07, 1e-6)  # minus, clamped, T = 1 us
N_WINDOWS = 11
PULSED_SPECTRA = ("piecewise", "flat", "minus", "plus", "opo")
IMPORT_MODULES = ("sqzsim", "scipy.signal", "scipy.special", "scipy.optimize")


class BenchError(Exception):
    """The benchmark itself could not run (missing sources, dead helper)."""


# ------------------------------------------------------------------ schedule


def schedule(workload: str, seed: int, units: int) -> list:
    """The ops of a run, as a list of schedule units, each a list of specs."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "pulsed_sweep":
        grid = [{"spectrum": s, "k": k} for s in PULSED_SPECTRA for k in range(N_WINDOWS)]
        for _ in range(units):
            unit = list(grid)
            rng.shuffle(unit)
            out.append(unit)
    elif workload == "record_path":
        seeds = [rng.randrange(2**32) for _ in range(units)]
        if units > 1:
            seeds[1] = seeds[0]  # one repeated seed: its .sqts must be byte-identical
        out = [[{"seed": s}] for s in seeds]
    else:
        for _ in range(units):
            unit = [
                ["criteria"],
                ["--seed", str(rng.randrange(2**32)), "spectrum"],
                ["pulsed", "--example"],
                ["pulsed", "--model", "minus", "--assume-feedback"],
                ["--seed", str(rng.randrange(2**32)), "synth", "--n-samples", "1048576"],
                ["analyze", "{in}/timeseries_minus.sqts", "--shot", "{in}/timeseries_shot.sqts"],
            ]
            rng.shuffle(unit)
            out.append(unit)
    return out


# ------------------------------------------------------------------ processes


class RefHelper:
    """The reference-kernel process; it never imports sqzsim."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [PY, str(HERE / "refkernel.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.walls = {}

    def run(self, kind: str) -> tuple[float, float]:
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("reference-kernel helper exited")
        wall, cpu = (float(x) for x in line.split())
        self.walls.setdefault(kind, []).append(wall)
        return wall, cpu


class Worker:
    """A fresh interpreter that imports sqzsim and builds a workload's inputs."""

    def __init__(self, ctx, setup_only: bool):
        cmd = [PY, str(HERE / "worker.py"), "--workload", ctx.workload, "--tmp", str(ctx.tmp)]
        if setup_only:
            cmd.append("--setup-only")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=ctx.env,
        )
        ctx.procs.append(self.proc)
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            _stop(self.proc)
            raise BenchError(f"{ctx.workload} worker failed during set-up")
        self.ready = json.loads(line[len("ready "):])

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker exited mid-run")
        return json.loads(line)

    def close(self):
        _stop(self.proc)


def _stop(proc: subprocess.Popen):
    """Close a child's pipes and wait for it; kill it if it lingers."""
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _run_cli(ctx, argv: list, out_dir: Path, traced: bool) -> dict:
    """One cold CLI process; wall from spawn to reap, CPU and RSS from wait4."""
    out_dir.mkdir(parents=True)
    argv = [a.replace("{in}", str(ctx.tmp)) for a in argv]
    stats = out_dir / "layers.json"
    if traced:
        cmd = [PY, str(HERE / "cli_driver.py"), str(stats), "--out", str(out_dir)] + argv
    else:
        cmd = [PY, "-m", "sqzsim", "--out", str(out_dir)] + argv
    with open(out_dir / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=ctx.env)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0:
        err = (out_dir / "stderr.txt").read_text().strip().splitlines()
        res.update(status="raised", detail=f"exit {proc.returncode}: {err[-1] if err else ''}")
    else:
        ok, detail = check_cli(ctx, argv, out_dir)
        res.update(status="ok" if ok else "wrong", detail=detail)
    if traced and stats.exists():
        res["trace"] = json.loads(stats.read_text())
    shutil.rmtree(out_dir)
    return res


# ------------------------------------------------------------------ oracles


def check_cli(ctx, argv: list, out: Path) -> tuple[bool, str]:
    """Every JSON output of a command that exited 0 is valid against its
    schema, and the headline figures hold."""
    cmd = next(a for a in argv if not a.startswith("-") and not a.isdigit())
    expect = {
        "criteria": ["criteria_report.json"],
        "spectrum": ["trace_plus.json", "trace_minus.json"],
        "pulsed": ["pulsed_report.json"],
        "synth": [],
        "analyze": ["trace_analyzed.json", "trace_normalized.json"],
    }[cmd]
    docs = {}
    for name in expect:
        path = out / name
        if not path.exists():
            return False, f"{cmd}: {name} not written"
        doc = json.loads(path.read_text())
        schema = "trace" if name.startswith("trace") else name[: -len(".json")]
        errors = list(ctx.validator(schema).iter_errors(doc))
        if errors:
            return False, f"{cmd}: {name} fails its schema: {errors[0].message}"
        docs[name] = doc
    if cmd == "criteria":
        return _near(docs["criteria_report.json"]["inseparability_detected"],
                     *INSEPARABILITY, "inseparability")
    if cmd == "pulsed" and "--example" in argv:
        return _near(docs["pulsed_report.json"]["improvement_factor"],
                     *EXAMPLE_FACTOR, "example factor")
    if cmd == "pulsed":
        want, rel = MODEL_VARIANCE
        return _near(docs["pulsed_report.json"]["pulsed_variance"], want, rel * want,
                     "model window variance")
    if cmd == "synth":
        size = (out / "timeseries_minus.sqts").stat().st_size
        return size == CLI_RECORD_BYTES, f"record of {size} bytes"
    return True, "outputs valid"


def _near(got: float, want: float, tol: float, what: str) -> tuple[bool, str]:
    return abs(got - want) <= tol, f"{what} {got:.6g} (want {want:.6g} +- {tol:.2g})"


def _validators(root: Path):
    import jsonschema

    cache = {}

    def get(name: str):
        if name not in cache:
            schema = json.loads((root / "schemas" / f"{name}.schema.json").read_text())
            cache[name] = jsonschema.Draft7Validator(schema)
        return cache[name]

    return get


# ------------------------------------------------------------------ statistics


def tail(xs: list) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, as
    (value, percentile); runs shorter than that report their maximum."""
    s = sorted(xs)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based nearest rank
    return s[rank - 1], 100.0 * rank / n


def _cpu_steal() -> tuple[int, int]:
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is in user)
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


# ------------------------------------------------------------------ the run


class Context:
    def __init__(self, root: Path, workload: str, seed: int, setup_samples: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "") \
            if self.env.get("PYTHONPATH") else src
        self.validator = _validators(root)
        self.procs = []  # every long-lived child, stopped when the run ends
        self.setup_samples = setup_samples


def bracketed(helper: RefHelper, kind: str, events) -> tuple[list, list]:
    """Run the reference kernel, then each event followed by the kernel
    again; returns the events' results and, for each, the mean wall and
    mean CPU time of the two kernel runs adjacent to it."""
    kernels = [helper.run(kind)]
    results = []
    for event in events:
        results.append(event())
        kernels.append(helper.run(kind))
    refs = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(kernels, kernels[1:])]
    return results, refs


def _normalize(raw: float, ref: float, kind: str) -> float:
    return raw * REF_NOMINAL_S[kind] / ref


def measure_setup(ctx, helper: RefHelper, keep_last: bool):
    """ctx.setup_samples timed spawns of fresh set-up interpreters between two
    runs of the reference kernel; with keep_last the final one stays up as
    the op worker."""
    before = helper.run(SETUP_REF)
    walls = []
    for i in range(ctx.setup_samples):
        last = keep_last and i == ctx.setup_samples - 1
        t0 = time.perf_counter()
        worker = Worker(ctx, setup_only=not last)
        walls.append(time.perf_counter() - t0)
        if not last:
            worker.close()  # before the next spawn or kernel, which it would slow
    after = helper.run(SETUP_REF)
    ref = (before[0] + after[0]) / 2
    setup_s = statistics.median([_normalize(wall, ref, SETUP_REF) for wall in walls])
    return setup_s, worker if keep_last else None, worker.ready


def run_workload(ctx, units: int, traced: bool, max_ops: int | None = None) -> dict:
    kind = REF_KIND[ctx.workload]
    sched = schedule(ctx.workload, ctx.seed, units)
    if traced:
        # every op of the first half runs twice, untraced and traced
        sched = sched[: max(1, len(sched) // 2)]
    ops = [spec for unit in sched for spec in unit][:max_ops]
    in_process = ctx.workload != "cli_cold"

    def event(i, spec, tr):
        if in_process:
            return tr, worker.request({"op": spec, "trace": tr})
        return tr, _run_cli(ctx, spec, ctx.tmp / f"op{i}{'t' if tr else ''}", tr)

    # traced runs alternate which copy of an op goes first, so that warm
    # caches favour neither side of trace.overhead_frac
    modes = lambda i: ((False, True), (True, False))[i % 2] if traced else (False,)
    events = [lambda i=i, spec=spec, tr=tr: event(i, spec, tr)
              for i, spec in enumerate(ops) for tr in modes(i)]
    ticks0, steal0 = _cpu_steal()
    helper = RefHelper()
    ctx.procs.append(helper.proc)
    try:
        setup_s, worker, ready = measure_setup(ctx, helper, keep_last=in_process)
        results, refs = bracketed(helper, kind, events)
        records = [(tr, res, ref_wall, ref_cpu)
                   for (tr, res), (ref_wall, ref_cpu) in zip(results, refs)]
        end = worker.request({"end": True}) if in_process else {}
    finally:
        for proc in ctx.procs:
            _stop(proc)
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    ticks1, steal1 = _cpu_steal()

    def norm(rec, key):
        tr, res, ref_wall, ref_cpu = rec
        return _normalize(res[key], ref_cpu if key == "cpu" else ref_wall, kind)

    plain = [r for r in records if not r[0]]
    walls = [norm(r, "wall") for r in plain]
    cpus = [norm(r, "cpu") for r in plain]
    failed = [r[1] for r in plain if r[1]["status"] != "ok"]
    tail_s, tail_pct = tail(walls)
    if in_process:
        peak = end["peak_rss_mb"]
    else:
        peak = max(r[1]["rss_mb"] for r in plain)

    out = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "cpu_per_op_s": sum(cpus) / len(cpus),
        "peak_rss_mb": peak,
        "ok_frac": (len(plain) - len(failed)) / len(plain),
        "_n": len(plain),
        "_tail_pct": tail_pct,
        "_failed": failed,
        "_wrong": sum(r["status"] == "wrong" for r in failed),
        "_ready": ready,
        "_ref_s": statistics.median(helper.walls[kind]),
        "_steal_frac": (steal1 - steal0) / max(1, ticks1 - ticks0),
        "_raw_p50": statistics.median([r[1]["wall"] for r in plain]),
    }
    if traced:
        traced_recs = [r for r in records if r[0]]
        traced_p50 = statistics.median([norm(r, "wall") for r in traced_recs])
        out["_overhead"] = traced_p50 / out["op_p50_s"] - 1
        out["_wrong"] += sum(r[1]["status"] == "wrong" for r in traced_recs)
        out["_layers"] = _layer_figures(ctx, end, traced_recs, ready)
    return out


def _layer_figures(ctx, end: dict, traced_recs: list, ready: dict) -> dict:
    if ctx.workload == "cli_cold":
        runs = [r[1]["trace"] for r in traced_recs if "trace" in r[1]]
        layers = {}
        for run in runs:
            for key, value in run["layers"].items():
                layers[key] = layers.get(key, 0.0) + value
        import_rss = statistics.median([run["import_rss_mb"] for run in runs])
        over = [(run["peak_rss_mb"] - run["import_rss_mb"]) / CLI_RECORD_MB for run in runs
                if run["layers"]["fileio.bytes"] > 0]
        layers["mem.import_rss_mb"] = import_rss
        layers["mem.peak_over_record"] = max(over, default=0.0)
        return layers
    layers = dict(end["layers"])
    layers["mem.import_rss_mb"] = ready["import_rss_mb"]
    layers["mem.peak_over_record"] = (
        (end["peak_rss_mb"] - ready["import_rss_mb"]) / RECORD_MB
        if ctx.workload == "record_path" else 0.0
    )
    return layers


def import_cumulative(report: str, module: str) -> float:
    """Seconds spent importing module and its submodules, from the stderr of
    ``python -X importtime``. A package imported through ``from pkg import
    sub`` gets no line of its own, so this sums the outermost lines named
    module or module.*; 0 if the module was never imported."""
    rows = []
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            rows.append((depth, name.strip(), int(parts[1]) * 1e-6))
    total, stack = 0.0, []  # the output is post-order; reversed it is pre-order
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        match = name == module or name.startswith(module + ".")
        inside = bool(stack) and stack[-1][1]
        if match and not inside:
            total += cumulative
        stack.append((depth, match or inside))
    return total


def import_times(ctx, repeats: int = 3) -> dict:
    """Cumulative import time of the package and its heavy dependencies as
    the CLI imports them, median over fresh interpreters."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [PY, "-X", "importtime", "-c", "import sqzsim, sqzsim.cli"],
            env=ctx.env, capture_output=True, text=True, check=True,
        )
        for m in IMPORT_MODULES:
            samples[m].append(import_cumulative(proc.stderr, m))
    return {f"import.{m.replace('.', '_')}_s": statistics.median(v) for m, v in samples.items()}


# ------------------------------------------------------------------ output


def load_units() -> dict:
    """Metric names and units of BENCHMARK.json, by trace mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def build_result(ctx, res: dict, traced: bool, units: dict) -> dict:
    if traced:
        values = dict(res["_layers"])
        values.update(import_times(ctx))
        values.update({
            "host.ref_s": res["_ref_s"],
            "host.steal_frac": res["_steal_frac"],
            "raw.op_p50_s": res["_raw_p50"],
            "trace.overhead_frac": res["_overhead"],
        })
    else:
        values = {k: v for k, v in res.items() if not k.startswith("_")}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {
        # an op that raised or exited nonzero is a failed op (ok_frac); an
        # answer that misses its oracle makes the whole run incorrect
        "correct": res["_wrong"] == 0,
        "attempted": res["_n"],
        "failed": len(res["_failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def info(ctx, res: dict, seconds: int, traced: bool) -> dict:
    ready = res["_ready"]
    failures = {}
    for r in res["_failed"]:
        failures[r["detail"]] = failures.get(r["detail"], 0) + 1
    return {
        "workload": ctx.workload, "seed": ctx.seed, "seconds": seconds, "trace": traced,
        "ops": res["_n"], "op_tail_percentile": round(res["_tail_pct"], 3),
        "ref_kernel": REF_KIND[ctx.workload],
        "ref_nominal_s": REF_NOMINAL_S[REF_KIND[ctx.workload]],
        "host.ref_s": res["_ref_s"], "host.steal_frac": res["_steal_frac"],
        "raw.op_p50_s": res["_raw_p50"],
        "failures": failures,
        "waiting_s": "0 by construction: nothing in sqzsim waits on a thread or process",
        "machine": {
            "nproc": os.cpu_count(), "python": ready.get("python"),
            "numpy": ready.get("numpy"), "scipy": ready.get("scipy"),
            "sqzsim": ready.get("sqzsim"),
        },
    }


def run_once(root: Path, workload: str, seed: int, seconds: int, traced: bool,
             units: dict, max_ops: int | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    ctx = Context(root, workload, seed, setup_samples)
    n_units = max(1, math.ceil(seconds / UNIT_S[workload]))
    res = run_workload(ctx, n_units, traced, max_ops)
    print("# info " + json.dumps(info(ctx, res, seconds, traced)), flush=True)
    return build_result(ctx, res, traced, units[traced])


def self_check(root: Path, units: dict) -> int:
    """One op per workload, untraced and traced; checks that the printed
    metrics are exactly BENCHMARK.json's names and units."""
    bad = 0
    for workload in WORKLOADS:
        for traced in (False, True):
            out = run_once(root, workload, 1, 1, traced, units, max_ops=1, setup_samples=1)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            ok = got == units[traced] and out["correct"] and out["attempted"] >= 1
            ok = ok and all(isinstance(v["value"], (int, float))
                            for v in out["metrics"].values())
            bad += not ok
            print(f"self-check {workload} trace={int(traced)}: {'ok' if ok else 'FAIL'} "
                  f"({out['attempted']} ops, {out['failed']} failed)", flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="one op per workload; check the metric names and units")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sqzsim" / "__init__.py").is_file():
        print(f"error: no sqzsim sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    units = load_units()
    try:
        if args.self_check:
            return self_check(root, units)
        if args.workload is None:
            ap.error("--workload is required")
        out = run_once(root, args.workload, args.seed, args.seconds, bool(args.trace), units)
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
