"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import dataclasses
import time

import numpy as np
from scipy.optimize import brentq

from conftest import physical_by_eigenvalues
from sqzsim import (
    ClassicalNoiseConfig,
    OpoParams,
    PiecewiseSpectrum,
    PulsedWindow,
    Spectrum,
    SweepConfig,
    antisqueezed_variance,
    default_config,
    duan_inseparability,
    effective_efficiency,
    emulate_sweep,
    from_db,
    normalize_to_shot,
    obeys_uncertainty,
    observe,
    observe_corrected,
    observed_relative_to_shot,
    pulsed_variance,
    pulsed_variance_with_error,
    squeezed_variance,
    synthesize,
    to_db,
    total_spectrum,
    welch_psd,
)
from sqzsim.cli import detected_record
from sqzsim.dsp import Trace


class _Criterion:
    def __init__(self, number, budget_s, description):
        self.number = number
        self.budget_s = budget_s
        self.description = description
        self.checks = []
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()

    def check(self, ok, detail):
        self.checks.append((bool(ok), detail))

    def conclude(self):
        # budget is enforced on CPU time: wall time on a shared box measures
        # the neighbors, not this check
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self.c0
        ok = all(c for c, _ in self.checks) and cpu < self.budget_s
        verdict = "PASS" if ok else "FAIL"
        print(
            f"\nacceptance {self.number} [{verdict}] "
            f"({cpu:.2f}s cpu, {wall:.2f}s wall) {self.description}"
        )
        for good, detail in self.checks:
            print(f"    {'ok  ' if good else 'FAIL'} {detail}")
        if cpu >= self.budget_s:
            print(f"    FAIL cpu time {cpu:.2f}s exceeds budget {self.budget_s}s")
        assert ok, f"criterion {self.number} failed"


def test_criterion_1_minimum_uncertainty_identity():
    crit = _Criterion(1, 1.0, "lossless S- S+ = 1 across 100 random operating points")
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        p = OpoParams(
            pump_ratio=rng.uniform(0.0, 0.99),
            cavity_hwhm=50e6,
            escape_efficiency=1.0,
        )
        f = rng.uniform(0.0, 10 * p.cavity_hwhm)
        prod = squeezed_variance(p, f) * antisqueezed_variance(p, f)
        worst = max(worst, abs(prod - 1.0))
    crit.check(worst < 1e-12, f"max |S- S+ - 1| = {worst:.3e} (tol 1e-12)")
    crit.conclude()


def test_criterion_2_inseparability_figure():
    crit = _Criterion(2, 1.0, "detected inseparability 0.33 +- 0.02 at 3.5 MHz")
    cfg = default_config()
    f0 = 3.5e6

    # the fitted pump ratio must agree with the one-line arithmetic oracle
    # eta_tot * S-(lossless) + (1 - eta_tot) for the quantum-only chain
    eta_tot = cfg.opo.escape_efficiency * effective_efficiency(cfg.detection)
    sig = cfg.opo.pump_ratio
    s_lossless = 1 - 4 * sig / ((1 + sig) ** 2 + (f0 / cfg.opo.cavity_hwhm) ** 2)
    oracle = eta_tot * s_lossless + (1 - eta_tot)

    quantum_only = observe_corrected(
        total_spectrum(cfg.opo, ClassicalNoiseConfig.zero(), "minus"), cfg.detection
    )(f0)
    crit.check(
        abs(quantum_only - oracle) < 1e-12,
        f"pipeline {quantum_only:.6f} vs arithmetic oracle {oracle:.6f}",
    )

    detected = {
        mode: observe_corrected(total_spectrum(cfg.opo, cfg.noise, mode), cfg.detection)(f0)
        for mode in ("plus", "minus")
    }
    insep = duan_inseparability(detected["plus"], detected["minus"])
    crit.check(0.31 <= insep <= 0.35, f"inseparability = {insep:.4f} in [0.31, 0.35]")
    crit.conclude()


def test_criterion_3_low_frequency_behavior():
    crit = _Criterion(3, 1.0, "SNL crossing in [40, 60] kHz and <= -2.7 dB at 100 kHz")
    cfg = default_config()
    for mode in ("plus", "minus"):
        s = total_spectrum(cfg.opo, cfg.noise, mode)
        crossing = brentq(lambda f: s(f) - 1.0, 10e3, 200e3)
        crit.check(
            40e3 <= crossing <= 60e3,
            f"{mode} mode crosses 0 dB at {crossing / 1e3:.2f} kHz",
        )
        at_100k = to_db(s(100e3))
        crit.check(at_100k <= -2.7, f"{mode} mode at 100 kHz: {at_100k:.2f} dB")
    crit.conclude()


def test_criterion_4_pulsed_example():
    crit = _Criterion(4, 10.0, "windowed-measurement variance vs brute-force oracle")
    t_window = 1e-6
    window = PulsedWindow(duration=t_window)
    squeezed_level = from_db(-3.0)
    example = PiecewiseSpectrum(
        breakpoints=(50e3,), values=(1.0,), tail_value=squeezed_level
    )

    # independent oracle: piecewise-split trapezoid to 1 GHz plus the exact
    # flat-tail remainder from the integral identity int_0^inf sinc^2 = 1/(2T)
    def sinc2(nu):
        return np.sinc(nu * t_window) ** 2

    nu1 = np.linspace(0.0, 50e3, 1_000_001)
    below = np.trapezoid(t_window**2 * sinc2(nu1), nu1)
    nu2 = np.linspace(50e3, 1e9, 10_000_001)
    above = np.trapezoid(t_window**2 * sinc2(nu2), nu2)
    beyond = t_window / 2 - below - above
    oracle = below + squeezed_level * (above + beyond)

    value, err = pulsed_variance_with_error(example, window)
    rel = abs(value - oracle) / oracle
    crit.check(rel < 1e-5, f"adaptive {value:.9e} vs oracle {oracle:.9e} (rel {rel:.2e})")

    factor = (t_window / 2) / value
    crit.check(
        1.6 <= factor <= 2.0,
        f"improvement factor {factor:.4f} in [1.6, 2.0] (published estimate: 1.7)",
    )

    worst = 0.0
    for t in (1e-8, 1e-6, 1e-4, 1e-3):
        flat = pulsed_variance(Spectrum.flat(1.0), PulsedWindow(duration=t))
        worst = max(worst, abs(flat - t / 2) / (t / 2))
    crit.check(worst < 1e-9, f"flat closed form T/2 exact to {worst:.2e} (tol 1e-9)")
    crit.conclude()


def test_criterion_5_dsp_round_trip():
    crit = _Criterion(5, 30.0, "synthesized record reproduces the detected spectrum")
    cfg = default_config()
    fs, n, rbw = 25e6, 2**22, 100e3

    ts_opo = detected_record(dataclasses.replace(cfg, seed=101), "minus", fs, n)
    ts_shot = detected_record(dataclasses.replace(cfg, seed=103), "shot", fs, n)

    def trace_of(ts):
        psd = welch_psd(ts, rbw)
        return Trace(psd.freqs[1:], 10 * np.log10(psd.values[1:]), rbw=rbw, vbw=rbw)

    normalized = normalize_to_shot(trace_of(ts_opo), trace_of(ts_shot))
    analytic = observed_relative_to_shot(
        total_spectrum(cfg.opo, cfg.noise, "minus"), cfg.detection
    )
    target_db = to_db(analytic(normalized.freqs))

    band = (normalized.freqs >= 300e3) & (normalized.freqs <= 10e6)
    smooth = band & (np.abs(normalized.freqs - cfg.noise.relax_center) > 300e3)
    dev = np.abs(normalized.values_db - target_db)
    crit.check(
        float(dev[smooth].max()) < 0.3,
        f"max |estimate - analytic| = {dev[smooth].max():.3f} dB over "
        f"{int(smooth.sum())} bins in 0.3-10 MHz (peak region excluded, tol 0.3 dB)",
    )

    peak_zone = np.abs(normalized.freqs - 1e6) <= 200e3
    baseline = np.median(normalized.values_db[(normalized.freqs > 2e6) & band])
    peak_db = normalized.values_db[peak_zone].max()
    peak_freq = normalized.freqs[peak_zone][np.argmax(normalized.values_db[peak_zone])]
    crit.check(
        peak_db - baseline > 2.0 and 0.9e6 <= peak_freq <= 1.1e6,
        f"excess-noise peak resolved: {peak_db - baseline:.1f} dB above baseline "
        f"at {peak_freq / 1e6:.3f} MHz",
    )
    crit.conclude()


def test_criterion_6_invariant_suites():
    crit = _Criterion(6, 60.0, "invariants: physicality oracle, Parseval, determinism")
    rng = np.random.default_rng(6)

    agree = 0
    for _ in range(1000):
        p = OpoParams(
            pump_ratio=1.0 - 10 ** rng.uniform(-9, 0),  # dense towards threshold
            cavity_hwhm=10 ** rng.uniform(3, 9),
            escape_efficiency=rng.uniform(1e-6, 1.0),
        )
        f = 10 ** rng.uniform(0, 12)
        s_sq, s_anti = squeezed_variance(p, f), antisqueezed_variance(p, f)
        agree += obeys_uncertainty(s_sq, s_anti) == physical_by_eigenvalues(s_sq, s_anti)
    crit.check(
        agree == 1000,
        f"closed form agrees with the eigenvalue oracle on {agree} of 1000 random lossy OPO states",
    )

    fs = 25e6
    shaped = observe(
        total_spectrum(default_config().opo, ClassicalNoiseConfig.zero(), "minus"),
        default_config().detection,
    )
    worst_parseval = 0.0
    for spec, seed in ((Spectrum.flat(1.0), 61), (shaped, 62)):
        ts = synthesize(spec, fs, 2**20, seed)
        psd = welch_psd(ts, 100e3)
        integral = float(np.trapezoid(psd.values, psd.freqs))
        worst_parseval = max(
            worst_parseval, abs(integral - ts.samples.var()) / ts.samples.var()
        )
    crit.check(worst_parseval < 0.02, f"Parseval within {worst_parseval:.3%} (tol 2%)")

    a = synthesize(shaped, fs, 2**16, 77).samples.tobytes()
    b = synthesize(shaped, fs, 2**16, 77).samples.tobytes()
    sweep = SweepConfig(start=300e3, stop=10e6, n_points=200, rbw=100e3, vbw=300.0)
    ta = emulate_sweep(shaped, sweep, 78).values_db.tobytes()
    tb = emulate_sweep(shaped, sweep, 78).values_db.tobytes()
    crit.check(a == b and ta == tb, "seeded reruns are byte-identical")
    crit.conclude()
