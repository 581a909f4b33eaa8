import hashlib
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
    observe_corrected,
    rbw_convolve,
    synthesize,
    total_spectrum,
    welch_psd,
)
from sqzsim.dsp import _SYNTH_BLOCK, record_grid

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
    return observe_corrected(total_spectrum(cfg.opo, cfg.noise, "minus"), cfg.detection)


# sha256 of synthesize(spectrum, 25 MHz, 2^16, seed).samples, frozen from the
# build that draws each bin's (real, imaginary) pair in frequency order; a
# change here changes every .sqts record
SYNTH_DIGESTS = {
    ("flat", 1): "24357e360e3a940efbaff55ef0c6df06702cda91823934b7dac64deea114e136",
    ("flat", 42): "97fd6b7d8555ec2a937273632921eb115cf4eab7a9a73e778ed878b3c15f7ee3",
    ("model", 1): "67c3a74ae55b6957d4827d32baa9d179f62228671047a9ebb053cf7e8e0c4210",
    ("model", 42): "76bcbaf0ffb5fd371271a7624ac7448cc6b5ff43e486553127d455457d93954a",
}


@pytest.mark.parametrize("name, seed", list(SYNTH_DIGESTS))
def test_synthesized_bytes_are_frozen(name, seed):
    ts = synthesize(synth_spectrum(name), 25e6, 2**16, seed)
    assert hashlib.sha256(ts.samples.tobytes()).hexdigest() == SYNTH_DIGESTS[name, seed]


# sha256 of synthesize(spectrum, 25 MHz, n, 1).samples at the edges of the
# blocks the bins are filled in: n = 2 has only the Nyquist bin, 2^20 spans
# 32 blocks. Frozen from the same build as SYNTH_DIGESTS
EDGE_DIGESTS = {
    ("flat", 2): "14372daf0c375007e994fd3b4cf770554c41681d70c9c3a75120d51b000a9f08",
    ("flat", 4): "94eebf600d7390335c29ace8d44647185797176348cf93fcf4178ea824f68177",
    ("flat", 2**10): "89facdd64c0afc1797471597dfbe484812de7e6f8eb493bc242110cd4d28fc06",
    ("flat", 2**20): "fdb01338ffd770bbf4543ea656401c8ffaf3ade981824f7acd6c103fd1876350",
    ("model", 2): "0aeb33ad2898e2ba407c5a1b774dcfcc2c26b712e32906e4c03234e59fd5d5bb",
    ("model", 4): "b00ac261f43bdfb4a175564c547888d3473f32e6471d09c8a9b00859d0667668",
    ("model", 2**10): "e661b030562aa22f7285c4127fcce518e0f57b48ec99e217e3d096d6a36a87b4",
    ("model", 2**20): "fb0eb5a799a4e6a3dbe6ed02a8872ae0285ddac93f6edf27847958425ec67b8d",
}


@pytest.mark.parametrize("name, n", list(EDGE_DIGESTS))
def test_synthesized_bytes_are_frozen_at_block_edges(name, n):
    ts = synthesize(synth_spectrum(name), 25e6, n, 1)
    assert hashlib.sha256(ts.samples.tobytes()).hexdigest() == EDGE_DIGESTS[name, n]


@pytest.mark.parametrize("name", ["flat", "model"])
@pytest.mark.parametrize("n", [2, 4, 2**10, 4 * _SYNTH_BLOCK])  # the last spans 2 blocks
def test_synthesized_bins_are_the_seeds_normal_pairs_shaped_by_the_spectrum(name, n):
    # rebuilt from the convention, not from the code: bin k = (x_k + i y_k)
    # sqrt(n S / 2) for the k-th pair of normals, the Nyquist bin x sqrt(n S)
    fs, seed = 25e6, 7
    spectrum = synth_spectrum(name)
    x, y = np.random.default_rng(seed).standard_normal((n // 2, 2)).T
    s = spectrum(np.fft.rfftfreq(n, d=1.0 / fs)[1:])
    want = np.concatenate([[0.0], (x + 1j * y) * np.sqrt(n * s / 2)])
    want[-1] = x[-1] * np.sqrt(n * s[-1])
    got = np.fft.rfft(synthesize(spectrum, fs, n, seed).samples)
    assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_synthesize_names_a_negative_value_in_the_last_block():
    n = 4 * _SYNTH_BLOCK
    freqs = np.fft.rfftfreq(n, d=1.0 / FS)
    f_bad = freqs[-3]
    with pytest.raises(ValueError, match=f"spectrum is negative at {f_bad:.6g} Hz"):
        synthesize(Spectrum(lambda f: np.where(f >= f_bad, -1.0, 1.0)), FS, n, 1)


def test_synthesize_non_finite_beats_an_earlier_negative():
    before = threading.active_count()
    n = 4 * _SYNTH_BLOCK
    f_nan = np.fft.rfftfreq(n, d=1.0 / FS)[-2]

    def spectrum(f):
        return np.where(f < 1e3, -1.0, np.where(f == f_nan, np.nan, 1.0))

    with pytest.raises(ValueError, match=r"^spectrum must be finite on \(0, sample_rate/2\]$"):
        synthesize(Spectrum(spectrum), FS, n, 1)
    assert threading.active_count() == before


def test_synthesize_failure_leaves_no_thread_running():
    before = threading.active_count()

    def spectrum(f):
        raise ZeroDivisionError("spectrum failed")

    with pytest.raises(ZeroDivisionError):
        synthesize(Spectrum(spectrum), FS, 4 * _SYNTH_BLOCK, 1)
    assert threading.active_count() == before


def test_synthesize_raises_a_spectrum_failure_in_block_3_of_4_on_the_caller():
    # the helper has drawn ahead; it stops and is joined
    before, calls = threading.active_count(), []

    def spectrum(f):
        calls.append(f.size)
        if len(calls) == 3:
            raise ZeroDivisionError("spectrum failed in block 3")
        return np.ones_like(f)

    with pytest.raises(ZeroDivisionError, match="^spectrum failed in block 3$"):
        synthesize(Spectrum(spectrum), FS, 8 * _SYNTH_BLOCK, 1)
    assert calls == [_SYNTH_BLOCK] * 3
    assert threading.active_count() == before


class _FailingGenerator:
    """A generator whose draws fail from the given block on, on whichever
    thread draws them."""

    def __init__(self, fail_at):
        self.blocks, self.fail_at, self.threads = 0, fail_at, set()

    def standard_normal(self, out):
        self.threads.add(threading.get_ident())
        self.blocks += 1
        if self.blocks >= self.fail_at:
            raise FloatingPointError(f"draw failed in block {self.blocks}")
        out[...] = 1.0


def test_synthesize_raises_a_generator_failure_on_the_caller(monkeypatch):
    before, rng = threading.active_count(), _FailingGenerator(fail_at=2)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    with pytest.raises(FloatingPointError, match="^draw failed in block 2$"):
        synthesize(Spectrum.flat(1.0), FS, 8 * _SYNTH_BLOCK, 1)
    # drawn on the helper, which stopped at the failure
    assert rng.blocks == 2 and threading.get_ident() not in rng.threads
    assert threading.active_count() == before


def test_synthesize_checks_a_block_before_its_draws_fail(monkeypatch):
    # as on one thread, the block's spectrum is refused before its draws are
    # taken, and after a negative value no draw is needed
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FailingGenerator(fail_at=2))
    n = 8 * _SYNTH_BLOCK
    f_bad = np.fft.rfftfreq(n, d=1.0 / FS)[_SYNTH_BLOCK + 5]  # in block 2
    with pytest.raises(ValueError, match=f"^spectrum is negative at {f_bad:.6g} Hz$"):
        synthesize(Spectrum(lambda f: np.where(f >= f_bad, -1.0, 1.0)), FS, n, 1)
    with pytest.raises(ValueError, match="must be finite"):
        synthesize(Spectrum(lambda f: np.where(f >= f_bad, np.nan, 1.0)), FS, n, 1)


def test_synthesize_calls_the_spectrum_on_the_calling_thread():
    seen = set()

    def spectrum(f):
        seen.add(threading.get_ident())
        return np.ones_like(f)

    synthesize(Spectrum(spectrum), FS, 4 * _SYNTH_BLOCK, 1)
    assert seen == {threading.get_ident()}


def test_concurrent_syntheses_keep_their_bytes():
    # more callers than cores, each with its own generator, switching often;
    # every record must equal the one made alone
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


def test_concurrent_welch_estimates_keep_their_bytes():
    # three blocks each, so both a caller's and a helper's blocks are summed
    records = [TimeSeries(25e6, np.random.default_rng(i).standard_normal(80000), 0)
               for i in range(6)]
    alone = [welch_psd(ts, 1e5).values.tobytes() for ts in records]
    together = [None] * len(alone)

    def work(i):
        together[i] = welch_psd(records[i], 1e5).values.tobytes()

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
    # a finite value whose n S overflows, which would give NaN samples; the
    # first bin at 25 MHz / 1024 is refused, without a warning
    with pytest.raises(ValueError, match=r"^spectrum is 1e\+306 at 24414.1 Hz, too large for "
                                         "a record of 1024 samples: n S leaves the float range$"):
        synthesize(Spectrum.flat(1e306), 25e6, 2**10, 1)
    # the largest value whose n S is a float is taken
    ts = synthesize(Spectrum.flat(np.finfo(float).max / 2**10), 25e6, 2**10, 1)
    assert np.isfinite(ts.samples).all()


def test_time_series_validation():
    for samples in (np.zeros((2, 2)), np.zeros(0), 1.0):
        with pytest.raises(ValueError, match="samples must be a non-empty 1-d array"):
            TimeSeries(FS, samples, 0)
    for rate in (0.0, -0.0, -1.0, -np.inf, np.nan):
        with pytest.raises(ValueError, match=r"sample_rate must lie in \(0, inf\]"):
            TimeSeries(rate, [0.0], 0)
    for rate in (5e-324, FS, np.inf):
        assert TimeSeries(rate, [1, 2], 0).samples.dtype == np.float64


@pytest.mark.parametrize("sample_rate, message", [
    (np.inf, r"sample_rate must lie in \(0, inf\), got inf"),
    # fs / n underflows to a bin spacing of 0
    (5e-324, r"sample_rate must give 1024 samples a finite duration, got 5e-324"),
])
def test_synthesize_refuses_a_rate_whose_bins_have_no_spacing(sample_rate, message):
    with pytest.raises(ValueError, match=message):
        synthesize(Spectrum.flat(1.0), sample_rate, 1024, 1)


@pytest.mark.parametrize("n", [1.5, np.nan, np.inf, 0, 1, 3, -4, 2**20 + 0.5])
def test_record_grid_refuses_a_length_that_is_not_a_power_of_two_by_value(n):
    with pytest.raises(ValueError, match="n_samples must be a power of two >= 2, got "):
        record_grid(FS, n)


def test_record_grid_gives_rfftfreq_spacing():
    for n in (2, 1024.0, np.int64(2**20)):
        got_n, df = record_grid(FS, n)
        assert type(got_n) is int and got_n == n
        assert df == np.fft.rfftfreq(got_n, d=1.0 / FS)[1]


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


# sha256 of welch_psd(TimeSeries(fs, default_rng(n).standard_normal(n), 0),
# rbw).values, frozen from the build that transformed every segment block
# on one thread. The block sums must be added in block order, whichever
# thread made them
WELCH_DIGESTS = {
    # 15 segments of 512: one block
    (4096, 25e6, 1e5): "69f1b0064e14540c5f42cbf4858cb12fbdf5b13d9302f06f416dad9487b52c67",
    # 255 segments: two blocks
    (2**16, 25e6, 1e5): "dda158f4fcc0af38016d349b7b2621d9c185d555976ac9f30cd5057daf1fa54b",
    # 311 segments: three blocks, the last partial
    (80000, 25e6, 1e5): "1403ef430b58d00719b9b1724c83e008659ea05e29c80c52b1acf3463be96933",
    # 16,383 segments of 512 in 128 blocks
    (2**22, 25e6, 1e5): "37dbb42cf6f8b5bb52c47d660fce00cec78a21cdfc6cb576013904395add433f",
    # 511 segments of 2^14, 4 per block
    (2**22, 20e6, 3e3): "42c7a6158a2dca86bfe182adf4306ac7bbb21f74ae38261a83374ca1669315b3",
}


@pytest.mark.parametrize("n, fs, rbw", list(WELCH_DIGESTS))
def test_welch_bytes_are_frozen(n, fs, rbw):
    samples = np.random.default_rng(n).standard_normal(n)
    psd = welch_psd(TimeSeries(fs, samples, 0), rbw)
    assert hashlib.sha256(psd.values.tobytes()).hexdigest() == WELCH_DIGESTS[n, fs, rbw]


def test_welch_names_the_first_bad_sample_in_an_odd_block():
    # segments of 512 in blocks of 128: sample 40000 is read only by block
    # 1, the helper's, and the later NaN only by block 2, this thread's
    before = threading.active_count()
    samples = np.ones(80000)
    samples[[40000, 75000]] = np.nan
    with pytest.raises(ValueError, match="^record sample 40000 is nan: a PSD needs finite "
                                         "samples$"):
        welch_psd(TimeSeries(25e6, samples, 0), 1e5)
    assert threading.active_count() == before


def test_welch_raises_a_helper_failure_on_the_caller(monkeypatch):
    before, rfft = threading.active_count(), np.fft.rfft

    def failing_off_the_caller(x, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("rfft failed on the helper")
        return rfft(x, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", failing_off_the_caller)
    with pytest.raises(MemoryError, match="^rfft failed on the helper$"):
        welch_psd(TimeSeries(25e6, np.ones(2**16), 0), 1e5)
    assert threading.active_count() == before


@pytest.mark.parametrize("rbw", [0.0, -1.0, np.nan, np.inf, 2 * FS])
def test_welch_rejects_rbw_outside_zero_to_twice_the_sample_rate(rbw):
    ts = synthesize(Spectrum.flat(1.0), FS, 2**10, 2)
    with pytest.raises(ValueError, match="rbw"):
        welch_psd(ts, rbw)


@pytest.mark.parametrize("at, value", [(0, np.nan), (700, np.nan), (1000, np.inf), (3, -np.inf),
                                       (1095, np.nan)])
def test_welch_names_the_first_sample_that_is_not_finite(at, value):
    # without a warning, and the first of them: a later one is also there.
    # Segments of 128 cover 2^10 samples; in a record of 1,100 they end at
    # sample 1087, and sample 1095 lies in the tail after them
    samples = np.ones(max(2**10, at + 5))
    samples[at] = value
    samples[at + 1:] = np.nan
    with pytest.raises(ValueError, match=f"^record sample {at} is {value!r}: a PSD needs "
                                         "finite samples$"):
        welch_psd(TimeSeries(FS, samples, 0), 2e4)


def test_welch_names_a_psd_beyond_the_float_range():
    ts = TimeSeries(FS, np.full(2**10, 1e160), 0)
    with pytest.raises(ValueError, match="the record's PSD leaves the float range"):
        welch_psd(ts, 2e4)


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


def test_sweep_of_a_negative_spectrum_names_the_first_frequency():
    # a chain map may hand on a spectrum below zero; the sweep refuses it
    spec = Spectrum(lambda f: np.where(f < 1.55e5, 1.0, -1.0))
    cfg = SweepConfig(start=1e5, stop=2e5, n_points=11, rbw=1e3, vbw=100.0)
    with pytest.raises(ValueError, match="convolved spectrum is not positive at 160000 Hz"):
        emulate_sweep(spec, cfg, seed=3)


def test_sweep_refuses_values_beyond_the_float_range_without_a_warning():
    # warnings are errors here, so each must be a ValueError and nothing else
    cfg = SweepConfig(start=1e5, stop=2e5, n_points=11, rbw=1e3, vbw=100.0)
    huge = Spectrum(lambda f: np.where(f < 1.55e5, 1.0, 1e308))
    with pytest.raises(ValueError, match="convolved spectrum is not finite at 160000 Hz"):
        emulate_sweep(huge, cfg, seed=3)
    # the kernel spans 8 sigma = 8 rbw / 2.355, and rbw / (2 vbw) looks
    wide = SweepConfig(start=1e5, stop=2e5, n_points=11, rbw=1e308, vbw=100.0)
    with pytest.raises(ValueError, match="rbw = 1e[+]308 Hz is too wide"):
        emulate_sweep(Spectrum.flat(1.0), wide, seed=3)
    narrow = SweepConfig(start=1e5, stop=2e5, n_points=11, rbw=1e3, vbw=5e-324)
    with pytest.raises(ValueError, match="vbw = 4.94066e-324 Hz is too narrow"):
        emulate_sweep(Spectrum.flat(1.0), narrow, seed=3)


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
    for freqs, values in (([1.0, 2.0], np.zeros(3)), ([[1.0, 2.0]], np.zeros((1, 2)))):
        with pytest.raises(ValueError, match="freqs and values_db must be 1-d arrays of equal"):
            Trace(np.array(freqs), values, rbw=10.0, vbw=1.0)
    with pytest.raises(ValueError):
        Trace(np.array([2.0, 1.0]), np.zeros(2), rbw=10.0, vbw=1.0)
    with pytest.raises(ValueError):
        Trace(np.array([1.0, 2.0]), np.zeros(2), rbw=1.0, vbw=10.0)
    # a NaN compares false with both neighbours, so ascent alone lets it in
    for freqs, named in (([1.0, np.nan, 3.0], "nan at index 1"),
                         ([1.0, 2.0, np.inf, np.nan], "inf at index 2 and 1 more")):
        with pytest.raises(ValueError, match=f"^freqs must be finite, got {named}$"):
            Trace(np.array(freqs), np.zeros(len(freqs)), rbw=1.0, vbw=1.0)
