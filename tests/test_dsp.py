import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqzsim import (
    SHOT_NOISE_VARIANCE,
    Spectrum,
    SweepConfig,
    TimeSeries,
    Trace,
    default_config,
    emulate_sweep,
    normalize_to_shot,
    observe,
    rbw_convolve,
    synthesize,
    total_spectrum,
    welch_psd,
)
from sqzsim.dsp import _SYNTH_BLOCK

FS = 1e6


def lorentzian_spectrum(center, fwhm, amp, floor=1.0):
    hw = fwhm / 2

    def fn(f):
        return floor + amp * hw**2 / ((np.asarray(f) - center) ** 2 + hw**2)

    return Spectrum(fn)


# ---------------------------------------------------------------- synthesize

def test_zero_spectrum_gives_zero_samples():
    ts = synthesize(Spectrum.flat(0.0), FS, 2**12, 3)
    assert np.all(ts.samples == 0.0)


def test_flat_spectrum_variance_matches_reference():
    ts = synthesize(Spectrum.flat(1.0), FS, 2**20, 11)
    assert ts.samples.var() == pytest.approx(SHOT_NOISE_VARIANCE, rel=0.01)
    assert abs(ts.samples.mean()) < 1e-12  # mean-free by construction


def test_synthesis_is_deterministic():
    a = synthesize(Spectrum.flat(1.0), FS, 2**14, 123)
    b = synthesize(Spectrum.flat(1.0), FS, 2**14, 123)
    assert a.samples.tobytes() == b.samples.tobytes()
    c = synthesize(Spectrum.flat(1.0), FS, 2**14, 124)
    assert a.samples.tobytes() != c.samples.tobytes()


def synth_spectrum(name):
    """Flat shot noise, or the default minus-mode model as `synth` shapes it."""
    if name == "flat":
        return Spectrum.flat(1.0)
    cfg = default_config()
    lossless_dark = dataclasses.replace(cfg.detection, dark_noise_db=-math.inf)
    return observe(total_spectrum(cfg.opo, cfg.noise, "minus"), lossless_dark)


# sha256 of synthesize(spectrum, 25 MHz, 2^16, seed).samples, frozen from a
# build that formed the bins as amps * (re + 1j*im) / sqrt(2) in whole
# arrays; a change here changes every .sqts record
SYNTH_DIGESTS = {
    ("flat", 1): "a6968ac62099752254c16b4333cee658edaf855df06e882c83d9a9ab1fad64cf",
    ("flat", 42): "4694749312f2794843ce9a009d9bdc37633eb271203b61451842a8929a81f1bc",
    ("model", 1): "1cdf3d09544eb3ec78cfd4f2ed9cf48c4236aac62d6d93eae3406de32c0935fc",
    ("model", 42): "461f32fb7d75c4322d771fd0e3957fa157db70076c2b22b16e5fc7c4db5b2d34",
}


@pytest.mark.parametrize("name, seed", list(SYNTH_DIGESTS))
def test_synthesized_bytes_are_frozen(name, seed):
    ts = synthesize(synth_spectrum(name), 25e6, 2**16, seed)
    assert hashlib.sha256(ts.samples.tobytes()).hexdigest() == SYNTH_DIGESTS[name, seed]


# sha256 of synthesize(spectrum, 25 MHz, n, 1).samples at the edges of the
# blocks the bins are filled in: n = 2 has only the Nyquist bin, 2^20 spans
# 32 blocks. Frozen from the build that evaluated the spectrum in one call
EDGE_DIGESTS = {
    ("flat", 2): "14372daf0c375007e994fd3b4cf770554c41681d70c9c3a75120d51b000a9f08",
    ("flat", 4): "015c7dafd545a46d04740d6fbcae5cad79586e5cefb9f3644011ab1b92064931",
    ("flat", 2**10): "617b418ce3e3ed6ff7bcf1cd95c83a0c1a50d63f87a4badd79be3bae80f39e24",
    ("flat", 2**20): "6ed61b7926321fa833a34d8b8757b69b770803ea6e4b39872ebeb2527b1331d9",
    ("model", 2): "0aeb33ad2898e2ba407c5a1b774dcfcc2c26b712e32906e4c03234e59fd5d5bb",
    ("model", 4): "ab343af0cc4d192b58588ae63b1eb9fc13cbd0ce74857498683adee46aee442a",
    ("model", 2**10): "bf8982c3acba30772d399461796e05a93a9fb1252b5b54bbf09d92fdb8171332",
    ("model", 2**20): "15aae49ef4e06aaf55cdc046107a48f212103ce348b5eda5efe504a0f52d7c89",
}


@pytest.mark.parametrize("name, n", list(EDGE_DIGESTS))
def test_synthesized_bytes_are_frozen_at_block_edges(name, n):
    ts = synthesize(synth_spectrum(name), 25e6, n, 1)
    assert hashlib.sha256(ts.samples.tobytes()).hexdigest() == EDGE_DIGESTS[name, n]


def test_synthesize_names_a_negative_value_in_the_last_block():
    n = 4 * _SYNTH_BLOCK
    freqs = np.fft.rfftfreq(n, d=1.0 / FS)
    f_bad = freqs[-3]
    with pytest.raises(ValueError, match=f"spectrum is negative at {f_bad:.6g} Hz"):
        synthesize(Spectrum(lambda f: np.where(f >= f_bad, -1.0, 1.0)), FS, n, 1)


def test_synthesize_non_finite_beats_an_earlier_negative():
    n = 4 * _SYNTH_BLOCK
    f_nan = np.fft.rfftfreq(n, d=1.0 / FS)[-2]

    def spectrum(f):
        return np.where(f < 1e3, -1.0, np.where(f == f_nan, np.nan, 1.0))

    with pytest.raises(ValueError, match="must be finite"):
        synthesize(Spectrum(spectrum), FS, n, 1)


def test_synthesize_failure_leaves_no_thread_running():
    before = threading.active_count()

    def spectrum(f):
        raise ZeroDivisionError("spectrum failed")

    with pytest.raises(ZeroDivisionError):
        synthesize(Spectrum(spectrum), FS, 4 * _SYNTH_BLOCK, 1)
    assert threading.active_count() == before


def test_synthesize_calls_the_spectrum_on_the_calling_thread():
    seen = set()

    def spectrum(f):
        seen.add(threading.get_ident())
        return np.ones_like(f)

    synthesize(Spectrum(spectrum), FS, 4 * _SYNTH_BLOCK, 1)
    assert seen == {threading.get_ident()}


def test_concurrent_syntheses_keep_their_bytes():
    # more callers than cores, each with its own helper thread, switching
    # often; every record must equal the one made alone
    spectrum, n, seeds = synth_spectrum("model"), 4 * _SYNTH_BLOCK, range(6)
    alone = [synthesize(spectrum, 25e6, n, seed).samples.tobytes() for seed in seeds]
    together = [None] * len(alone)

    def work(i):
        together[i] = synthesize(spectrum, 25e6, n, seeds[i]).samples.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(alone))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone


@pytest.mark.parametrize("name", ["flat", "model"])
def test_synthesize_peak_memory_is_bins_and_record(name):
    # the bins and the record are one record size each; the spectrum is
    # evaluated a block at a time, so its temporaries stay small (measured
    # 2.0x for both)
    n = 2**18
    spectrum = synth_spectrum(name)
    synthesize(spectrum, 25e6, 2**4, 1)  # lazy numpy imports outside the trace
    tracemalloc.start()
    try:
        synthesize(spectrum, 25e6, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * n, f"{peak / (8 * n):.2f} record sizes"


def test_synthesize_leaves_the_spectrum_values_alone():
    # a spectrum may return an array it keeps, or a read-only view
    kept = np.full(2**9, 2.0)
    synthesize(Spectrum(lambda f: kept), FS, 2**10, 1)
    assert np.all(kept == 2.0)
    synthesize(Spectrum(lambda f: np.broadcast_to(2.0, f.shape)), FS, 2**10, 1)


def test_synthesize_input_validation():
    with pytest.raises(ValueError):
        synthesize(Spectrum.flat(1.0), FS, 1000, 1)  # not a power of two
    with pytest.raises(ValueError):
        synthesize(Spectrum.flat(-1.0), FS, 2**10, 1)
    with pytest.raises(ValueError):
        synthesize(Spectrum.flat(1.0), -1.0, 2**10, 1)


# ------------------------------------------------------------------ welch

def test_white_noise_is_flat_at_2_over_fs():
    ts = synthesize(Spectrum.flat(1.0), FS, 2**20, 5)
    psd = welch_psd(ts, 2e4)
    band = (psd.freqs > 0.05 * FS / 2) & (psd.freqs < 0.95 * FS / 2)
    assert psd.values[band].mean() == pytest.approx(2.0 / FS, rel=0.01)


def test_sinusoid_integrated_power():
    # Parseval oracle: a line of amplitude A carries power A^2/2
    n, amp = 2**18, 0.7
    nperseg = 256  # rbw 2/nperseg*fs/... chosen so freq sits on a bin
    f_line = 40 * FS / nperseg
    t = np.arange(n) / FS
    ts_sin = synthesize(Spectrum.flat(0.0), FS, n, 1)
    samples = ts_sin.samples + amp * np.sin(2 * np.pi * f_line * t)
    from sqzsim import TimeSeries

    psd = welch_psd(TimeSeries(FS, samples, 1), rbw=2 * FS / nperseg)
    total = np.trapezoid(psd.values, psd.freqs)
    assert total == pytest.approx(amp**2 / 2, rel=0.01)


def test_parseval_within_2_percent():
    spec = lorentzian_spectrum(0.2 * FS, 0.05 * FS, 3.0)
    ts = synthesize(spec, FS, 2**19, 9)
    psd = welch_psd(ts, 1e4)
    integral = np.trapezoid(psd.values, psd.freqs)
    assert integral == pytest.approx(ts.samples.var(), rel=0.02)


def test_record_too_short_error_names_minimum_length():
    ts = synthesize(Spectrum.flat(1.0), FS, 2**10, 2)
    with pytest.raises(ValueError, match="at least"):
        welch_psd(ts, 10.0)


@pytest.mark.parametrize("n, rbw", [
    (2**22, 1e5), (2**20, 1e5), (2**16, 3e3), (2**14, 1e4), (3000, 1e5),
    (768, 1e5),  # the shortest record at this rbw: two overlapped segments of 512
])
def test_welch_matches_scipy(n, rbw):
    from scipy import signal

    fs = 25e6
    samples = np.random.default_rng(n).standard_normal(n)
    psd = welch_psd(TimeSeries(fs, samples, 0), rbw)
    nperseg = 1 << int(np.ceil(np.log2(2 * fs / rbw)))
    freqs, want = signal.welch(samples, fs=fs, window="hann", nperseg=nperseg,
                               noverlap=nperseg // 2, detrend=False, scaling="density")
    assert np.array_equal(psd.freqs, freqs)
    assert_allclose(psd.values, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rbw", [0.0, -1.0, np.nan, np.inf, 2 * FS])
def test_welch_rejects_rbw_outside_zero_to_twice_the_sample_rate(rbw):
    ts = synthesize(Spectrum.flat(1.0), FS, 2**10, 2)
    with pytest.raises(ValueError, match="rbw"):
        welch_psd(ts, rbw)


def test_round_trip_synthesize_welch():
    spec = lorentzian_spectrum(0.25 * FS, 0.04 * FS, 2.0)
    ts = synthesize(spec, FS, 2**20, 21)
    psd = welch_psd(ts, 2e4)
    band = (psd.freqs > 0.05 * FS / 2) & (psd.freqs < 0.9 * FS / 2)
    est_db = 10 * np.log10(psd.values[band] * FS / 2.0)
    target_db = 10 * np.log10(spec(psd.freqs[band]))
    assert np.max(np.abs(est_db - target_db)) < 0.3


def test_estimator_variance_halves_with_double_averaging():
    # two record lengths, 50 seeds: estimator variance should scale ~1/2
    spreads = {}
    for n in (2**14, 2**15):
        estimates = []
        for seed in range(50):
            ts = synthesize(Spectrum.flat(1.0), FS, n, 1000 + seed)
            psd = welch_psd(ts, rbw=2 * FS / 256)
            estimates.append(psd.values[64])
        spreads[n] = np.var(estimates)
    ratio = spreads[2**14] / spreads[2**15]
    assert 1.6 <= ratio <= 2.4


# ------------------------------------------------------------- emulate sweep

def test_sweep_without_video_averaging_noise_matches_convolution():
    spec = lorentzian_spectrum(0.3 * FS, 0.02 * FS, 1.5)
    cfg = SweepConfig(start=0.1 * FS, stop=0.45 * FS, n_points=97, rbw=1e4, vbw=1e4 / 2e12)
    trace = emulate_sweep(spec, cfg, seed=17)
    target_db = 10 * np.log10(rbw_convolve(spec, cfg.freqs, cfg.rbw))
    assert np.max(np.abs(trace.values_db - target_db)) < 1e-3


def test_sweep_flat_statistics():
    cfg = SweepConfig(start=1e5, stop=4e5, n_points=4000, rbw=1e4, vbw=50.0)
    trace = emulate_sweep(Spectrum.flat(1.0), cfg, seed=8)
    n_avg = round(cfg.rbw / (2 * cfg.vbw))
    expected_std = 10 * np.log10(np.e) / np.sqrt(n_avg)
    assert abs(trace.values_db.mean()) < 0.06
    assert trace.values_db.std() == pytest.approx(expected_std, rel=0.15)


def test_narrow_feature_broadens_to_rbw():
    # convolution oracle: a line much narrower than the kernel takes on
    # the kernel width
    spec = lorentzian_spectrum(1e6, 2e3, 100.0)
    freqs = np.linspace(0.7e6, 1.3e6, 601)
    conv = rbw_convolve(spec, freqs, rbw=100e3)
    excess = conv - 1.0
    half = excess.max() / 2
    above = freqs[excess >= half]
    fwhm = above[-1] - above[0]
    assert fwhm == pytest.approx(100e3, rel=0.15)


def test_sweep_determinism_and_validation():
    cfg = SweepConfig(start=1e5, stop=2e5, n_points=50, rbw=1e4, vbw=100.0)
    t1 = emulate_sweep(Spectrum.flat(1.0), cfg, seed=4)
    t2 = emulate_sweep(Spectrum.flat(1.0), cfg, seed=4)
    assert np.array_equal(t1.values_db, t2.values_db)
    with pytest.raises(ValueError):
        SweepConfig(start=2e5, stop=1e5, n_points=50, rbw=1e4, vbw=100.0)
    with pytest.raises(ValueError):
        SweepConfig(start=1e5, stop=2e5, n_points=50, rbw=50.0, vbw=100.0)


# ---------------------------------------------------------------- normalize

def test_normalize_to_shot():
    freqs = np.linspace(1e5, 1e6, 11)
    trace = Trace(freqs, np.full(11, -84.0), rbw=1e4, vbw=1e3)
    shot = Trace(freqs, np.full(11, -81.0), rbw=1e4, vbw=1e3)
    out = normalize_to_shot(trace, shot)
    assert_allclose(out.values_db, -3.0)
    assert_allclose(normalize_to_shot(trace, trace).values_db, 0.0)


def test_normalize_grid_mismatch():
    freqs = np.linspace(1e5, 1e6, 11)
    trace = Trace(freqs, np.zeros(11), rbw=1e4, vbw=1e3)
    shot = Trace(freqs + 1.0, np.zeros(11), rbw=1e4, vbw=1e3)
    with pytest.raises(ValueError, match="grid"):
        normalize_to_shot(trace, shot)


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(np.array([2.0, 1.0]), np.zeros(2), rbw=10.0, vbw=1.0)
    with pytest.raises(ValueError):
        Trace(np.array([1.0, 2.0]), np.zeros(2), rbw=1.0, vbw=10.0)
