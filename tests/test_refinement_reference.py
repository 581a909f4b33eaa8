"""The pulsed engine against the array-bookkeeping form it replaced, which
this module keeps as a reference.

The engine does its breakpoint set-up in Python floats and bisects its
worst panel with one argmax, Python-float scalars and scalar table stores.
Every floating-point operation is the one the reference makes, in the same
order, so (value, error) must match bit for bit, the spectrum must be
called at the same frequencies, and the refinement cap must raise the same
message.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sqzsim import (
    PiecewiseSpectrum,
    PulsedWindow,
    Spectrum,
    clamp_to_shot_below,
    default_config,
    observe_corrected,
    pulsed_variance_with_error,
    total_spectrum,
)
from sqzsim.pulsed import (
    _FAR_EDGES,
    _LOBE_STARTS,
    _MAX_REFINEMENTS,
    _N_LOBES,
    _REL_TOL,
    _checked,
    _gl_nodes,
    _gl_sums,
    _lobe_panels,
    _sinc2,
)

from conftest import sweep_spectra

# ------------------------------------------------------------- reference


def _distinct_sorted(*arrays) -> np.ndarray:
    """The sorted distinct values of the joined arrays, from which the
    reference forms its panel edges: np.unique's, bit for bit."""
    joined = np.sort(np.concatenate(arrays))
    return joined[np.diff(joined, prepend=-np.inf) > 0]


def ref_pulsed_variance_with_error(spectrum, window, ties=None):
    """The engine with its table kept in array slices; appends to ties the
    number of tied panels each time the worst error is shared."""
    t = window.duration
    x = _N_LOBES / t
    s = _checked(spectrum)
    freq = (lambda u: u / t, lambda w: x / w)
    integrand = (
        lambda u, sv: sv * _sinc2(u),
        lambda w, sv: sv / (2.0 * np.pi**2 * _N_LOBES),
    )

    whole = slice(None)
    lobes, far_edges = _LOBE_STARTS, _FAR_EDGES
    cut_a = cut_b = far_bp = far_at = np.empty(0)
    bp = np.asarray(getattr(spectrum, "breakpoints", ()), dtype=float)
    if bp.size:
        with np.errstate(over="ignore"):
            lobes_at = bp * t
        inside = lobes_at[(lobes_at > 0) & (lobes_at < _N_LOBES)]
        inside = inside[inside != np.floor(inside)]
        if inside.size:
            cut_lobes = np.floor(inside)
            whole = np.ones(_N_LOBES, dtype=bool)
            whole[cut_lobes.astype(int)] = False
            lobes = np.flatnonzero(whole).astype(float)
            cuts = _distinct_sorted(cut_lobes, cut_lobes + 1.0, inside)
            in_cut_lobe = ~whole[cuts[:-1].astype(int)]
            cut_a, cut_b = cuts[:-1][in_cut_lobe], cuts[1:][in_cut_lobe]
        far = lobes_at > _N_LOBES
        far_bp, far_at = bp[far], lobes_at[far]
        if far_bp.size:
            far_edges = _distinct_sorted(_FAR_EDGES, _N_LOBES / far_at)

    panels = [
        (k, a, b, *_gl_nodes(a, b))
        for k, a, b in ((0, cut_a, cut_b), (1, far_edges[:-1], far_edges[1:]))
        if a.size
    ]
    sv = s(np.concatenate(
        (far_bp, np.nextafter(far_bp, 0.0), [x], *(freq[k](z) for k, *_, z in panels))
    ))
    nf = far_bp.size

    jumps = np.abs(sv[:nf] - sv[nf : 2 * nf])
    averaging_err = float(
        sv[2 * nf] / (4.0 * np.pi**4 * _N_LOBES**3)
        + np.sum(jumps / (4.0 * np.pi**3 * far_at) / far_at)
    )

    fine, err = _lobe_panels(s, t)
    initial = [(0, lobes, lobes + 1.0, fine[whole], err[whole])]
    at = 2 * nf + 1
    for k, a, b, half, z in panels:
        initial.append((k, a, b, *_gl_sums(half, integrand[k](z, sv[at : at + z.size]))))
        at += z.size
    cap = sum(p[1].size for p in initial) + _MAX_REFINEMENTS
    side = np.empty(cap, dtype=np.int8)
    start, end, value, error = (np.empty(cap) for _ in range(4))

    def store(i, k, a, b, fine, err):
        sl = slice(i, i + fine.size)
        side[sl], start[sl], end[sl], value[sl], error[sl] = k, a, b, fine, err

    value_sum = err_sum = 0.0
    n = 0
    for k, a, b, fine, err in initial:
        store(n, k, a, b, fine, err)
        n += fine.size
        value_sum += float(np.sum(fine))
        err_sum += float(np.sum(err))
    err_sum += averaging_err

    while err_sum > _REL_TOL * abs(value_sum) and abs(value_sum) != 0.0:
        if n == cap:
            near = float(np.sum(error[:n][side[:n] == 0]))
            sources = {
                "near field": near,
                "far field": err_sum - averaging_err - near,
                "lobe average": averaging_err,
            }
            worst = max(sources, key=sources.get)
            raise RuntimeError(
                f"window-variance quadrature did not reach the requested tolerance "
                f"in {n} panels; the largest error left is in the {worst}: "
                f"{t * sources[worst]:.3g} against a variance of {t * value_sum:.3g}; "
                "if the spectrum diverges at low frequency, clamp it (e.g. with "
                "clamp_to_shot_below) to model a feedback-stabilized source"
            )
        tied = np.flatnonzero(error[:n] == error[:n].max())
        if tied.size > 1:
            if ties is not None:
                ties.append(tied.size)
            tied = tied[np.lexsort((side[tied], value[tied], end[tied], start[tied]))]
        w = tied[0]
        a, b, k = start[w], end[w], side[w]
        edges = np.array([a, 0.5 * (a + b), b])
        half, z = _gl_nodes(edges[:2], edges[1:])
        fine, err = _gl_sums(half, integrand[k](z, s(freq[k](z))))
        value_sum += float(np.sum(fine)) - value[w]
        err_sum += float(np.sum(err)) - error[w]
        store(w, k, a, edges[1], fine[:1], err[:1])
        store(n, k, edges[1], b, fine[1:], err[1:])
        n += 1

    order = np.lexsort((start[:n], side[:n]))
    total_err = float(np.sum(error[order])) + averaging_err
    return t * float(np.sum(value[order])), t * total_err


# ---------------------------------------------------------------- helpers


class Recording:
    """A spectrum that records the frequencies of every call, bit for bit."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def __getattr__(self, name):  # breakpoints, when the inner spectrum has them
        return getattr(self.inner, name)

    def __call__(self, f):
        self.calls.append(np.asarray(f, dtype=float).tobytes())
        return self.inner(f)


def outcome(fn, spectrum, window):
    """float.hex of (value, error), or the type and message of the error,
    and the frequencies of every spectrum call in order: a tie broken
    another way bisects another panel, whose nodes show, even where the
    final table and so the result come out the same."""
    recording = Recording(spectrum)
    try:
        result = tuple(v.hex() for v in fn(recording, window))
    except (ValueError, RuntimeError) as exc:
        result = type(exc), str(exc)
    return result, recording.calls


def assert_same_outcome(spectrum, window, ties=None):
    got, got_calls = outcome(pulsed_variance_with_error, spectrum, window)
    want, want_calls = outcome(lambda s, w: ref_pulsed_variance_with_error(s, w, ties),
                               spectrum, window)
    assert got == want
    assert len(got_calls) == len(want_calls)
    differs = [i for i, (a, b) in enumerate(zip(got_calls, want_calls)) if a != b]
    assert not differs, f"spectrum calls {differs[:5]} differ"
    return got


windows = st.floats(1e-8, 1e-3).map(PulsedWindow)


def _chain(mode, knee):
    cfg = default_config()
    detected = observe_corrected(total_spectrum(cfg.opo, cfg.noise, mode), cfg.detection)
    return clamp_to_shot_below(detected, knee)


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("name", ["piecewise", "flat", "minus", "plus", "opo"])
def test_sweep_points_match_the_reference(name):
    spectrum = sweep_spectra()[name]
    for t in np.logspace(-8, -3, 11):
        assert isinstance(assert_same_outcome(spectrum, PulsedWindow(t))[0], str)


@settings(max_examples=40, deadline=None)
@given(
    windows,
    st.lists(st.floats(1e-3, 3e3), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(0.05, 5.0), min_size=5, max_size=5),
)
@example(PulsedWindow(2.0**-20), [3.5, 7.25, 7.75, 2500.25], [1.0, 0.3, 2.0, 0.5, 0.6])
def test_piecewise_spectra_match_the_reference(window, lobes_at, levels):
    # breakpoints placed in lobes (b T): inside and on the edges of
    # near-field lobes and beyond x, where they are far-field panel edges
    breakpoints = tuple(sorted(u / window.duration for u in lobes_at))
    assume(len(set(breakpoints)) == len(breakpoints))
    spec = PiecewiseSpectrum(breakpoints=breakpoints, values=tuple(levels[: len(breakpoints)]),
                             tail_value=levels[-1])
    assert_same_outcome(spec, window)


@settings(max_examples=25, deadline=None)
@given(windows, st.sampled_from(["plus", "minus"]), st.floats(3.0, 7.0))
@example(PulsedWindow(10**-6.5), "plus", math.log10(5e4))
def test_clamped_chains_match_the_reference(window, mode, log_knee):
    assert_same_outcome(_chain(mode, 10**log_knee), window)


def _square_wave(period):
    """1 and 2 in turn, switching every 1 / (2 period) Hz, at undeclared
    jumps."""
    return Spectrum(lambda f: 1.5 + 0.5 * np.sign(np.sin(2 * np.pi * np.asarray(f) * period)))


# a period of 1e-7 s or 5e-9 s gives jumps at whole fractions of a lobe,
# where bisections leave two to five panels with one error, and converges;
# 3.3e-6 s, the refinement-cap test's wave, runs into the cap. In each, the
# tie rule picks a panel other than the first of the tied rows in the table
# (72, 26 and 3 times); the final table, and so the result, would often come
# out the same either way, but the spectrum calls would not
@pytest.mark.parametrize("period, t", [(1e-7, 1e-6), (5e-9, 1e-7), (3.3e-6, 1e-6)])
def test_ties_and_the_cap_message_match_the_reference(period, t):
    ties = []
    assert_same_outcome(_square_wave(period), PulsedWindow(t), ties)
    assert ties, "the case must take the tie path"


class _PeakInACutLobe:
    """A narrow Lorentzian peak beside a declared breakpoint, inside the
    near-field lobe it cuts or in the far field it splits, so the bisected
    panels have edges that are not dyadic."""

    def __init__(self, t, lobes_at, peak_at, width):
        self.breakpoints = (lobes_at / t,)
        self.peak, self.width = peak_at / t, width / t

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        return 1.0 + 50.0 / (1.0 + ((f - self.peak) / self.width) ** 2)


# in lobes: the breakpoint, the peak and its half-width; each refines 3-5 times
@pytest.mark.parametrize("lobes_at, peak_at, width", [
    (0.3137, 0.2, 0.01), (5.71, 5.9, 0.01), (1234.567, 1500.3, 5.0),
])
def test_bisections_of_cut_and_far_panels_match_the_reference(lobes_at, peak_at, width):
    t = 1e-6
    assert_same_outcome(_PeakInACutLobe(t, lobes_at, peak_at, width), PulsedWindow(t))


class _ReadOnly:
    """The inner spectrum with every result marked read-only."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):  # breakpoints
        return getattr(self.inner, name)

    def __call__(self, f):
        out = self.inner(f)
        out.flags.writeable = False
        return out


def test_the_engine_never_writes_a_spectrum_result():
    # a peak in a cut lobe, bisected, and a far-field breakpoint: the one
    # spectrum call serves both sides of the generic panels, and bisections
    # call it again
    t = 1e-6
    spectrum = _PeakInACutLobe(t, 0.3137, 0.2, 0.01)
    spectrum.breakpoints += (1234.567 / t,)
    want, want_calls = outcome(pulsed_variance_with_error, spectrum, PulsedWindow(t))
    got, got_calls = outcome(pulsed_variance_with_error, _ReadOnly(spectrum), PulsedWindow(t))
    assert isinstance(got[0], str) and got == want
    assert got_calls == want_calls
    assert len(got_calls) > 7  # the 6 lobe-table chunks, the one call, bisections


_EDGES = st.lists(st.sampled_from([0.0, 1e-300, 0.125, 1.0, 5e4, 1e9]), max_size=12)


@given(st.lists(_EDGES, min_size=1, max_size=3))
def test_edge_sets_match_np_unique(arrays):
    # the reference's panel edges are np.unique's, bit for bit; the cuts of a
    # spectrum without near-field breakpoints are empty
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    got = _distinct_sorted(*arrays)
    assert got.tobytes() == np.unique(np.concatenate(arrays)).tobytes()


class _Declared:
    """A piecewise spectrum whose breakpoints attribute is passed on as
    given: in any order, with repeats, as a tuple, a list or an array."""

    def __init__(self, breakpoints):
        self.breakpoints = breakpoints
        edges = sorted(set(np.asarray(breakpoints, dtype=float).tolist()))
        levels = [(1.0, 0.3, 2.0, 0.5, 1.5)[i % 5] for i in range(len(edges))]
        self.inner = PiecewiseSpectrum(tuple(edges), tuple(levels), 0.6)

    def __call__(self, f):
        return self.inner(f)


@settings(max_examples=40, deadline=None)
@given(
    windows,
    st.lists(st.one_of(st.floats(1e-3, 3e3), st.integers(1, 2999).map(float)),
             min_size=1, max_size=6),
    st.sampled_from([tuple, list, np.array]),
)
# in lobes (b T) at T = 2^-20 s, where b T is exact: repeated and unsorted
# breakpoints; two inside one lobe; cuts in adjacent lobes; one on a whole
# lobe beside a cut, one on the edge of the near field and one beyond it
@example(PulsedWindow(2.0**-20), [7.75, 3.5, 2500.25, 7.75, 3.5, 1500.5], list)
@example(PulsedWindow(2.0**-20), [3.25, 3.75, 3.5], np.array)
@example(PulsedWindow(2.0**-20), [4.5, 3.5, 5.25], tuple)
@example(PulsedWindow(2.0**-20), [3.0, 3.5, 1000.0, 2500.25, 2500.25], np.array)
def test_declared_breakpoints_match_the_reference(window, lobes_at, container):
    t = window.duration
    assert_same_outcome(_Declared(container([u / t for u in lobes_at])), window)


# at T = 10 s, x = 100 Hz: 1e308 Hz lies at b T = 1e309, beyond the float
# range, so at w = 0, beside a cut at 522.5 lobes and a whole lobe at 525
def test_a_breakpoint_beyond_the_float_range_in_lobes_matches_the_reference():
    spectrum = _Declared((1e308, 52.25, 52.5))
    assert 1e308 * 10.0 == math.inf
    assert isinstance(assert_same_outcome(spectrum, PulsedWindow(10.0))[0], str)
