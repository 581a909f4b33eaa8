"""Noise variance of a finite-window measurement and its improvement factor.

Integrating a photocurrent over a rectangular window of duration T filters
the source noise spectrum S with a sinc^2 kernel; in lobes u = nu T,

    sigma^2 = integral_0^inf S(nu) T^2 sinc^2(pi nu T) dnu
            = T integral_0^inf S(u/T) sinc^2(pi u) du

For a flat spectrum S = c the integral is c T / 2, so the improvement factor
of a source over a shot-limited one is (T/2) / sigma^2. The engine
integrates in lobes and multiplies by T at the end, so T is never squared
(T^2 leaves the float range for T below about 1e-154 or above 1e154).

The integrand oscillates with period one lobe, which stalls generic adaptive
quadrature, so the half-line is split at u = N (N = 1000 lobes, nu = x =
N/T). The near field u < N gets one panel per lobe [k, k+1]. Whole lobes
take their nodes and weights from one table, built on first use: the
Gauss-Legendre nodes of each lobe with sinc^2 there folded into the weights,
exact to rounding because sin^2(pi (k + v)) = sin^2(pi v) keeps the sine's
argument within pi/2. A lobe that a spectrum breakpoint falls inside is cut
there into generic panels. The far field u > N takes the lobe-averaged
kernel 1/(2 pi^2 u^2) in w = N/u, where the integrand is S(x/w) / (2 pi^2 N)
on (0, 1] and breakpoints beyond x are panel edges. The lobe table is
evaluated in chunks of at most 4096 nodes, then one spectrum call covers
everything else: x, the breakpoints beyond it and the nodes of the other
panels. Panels of both fields (16 nodes, checked against 8) share one table,
in which the worst panel is bisected until the summed estimate meets the
relative tolerance. The returned error adds what the lobe average drops:
S(x) T / (4 pi^4 N^3) for the smooth far field and |dS| / (4 pi^3 T b^2)
per jump dS at a b > x.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum

__all__ = [
    "PulsedWindow",
    "PiecewiseSpectrum",
    "pulsed_variance",
    "pulsed_variance_with_error",
    "improvement_factor",
    "flat_window_variance",
    "clamp_to_shot_below",
]

_N_FINE = 16
_N_LOBES = 1_000
_REL_TOL = 1e-6
_MAX_REFINEMENTS = 4000
_CHUNK_NODES = 4096

# the panels of a spectrum without breakpoints: every near-field lobe whole,
# and the far field in eighths of w
_LOBE_STARTS = np.arange(float(_N_LOBES))
_FAR_EDGES = np.linspace(0.0, 1.0, 9)
_LOBE_STARTS.flags.writeable = _FAR_EDGES.flags.writeable = False


@dataclass(frozen=True)
class PulsedWindow:
    """Rectangular integration window of the given duration in seconds."""

    duration: float

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"window duration must be finite and positive, got {self.duration}")
        if not np.isfinite(_N_LOBES / self.duration):
            raise ValueError(
                f"window duration {self.duration} s is too short: the near field "
                f"ends at {_N_LOBES} / T, which overflows"
            )


@dataclass(frozen=True)
class PiecewiseSpectrum:
    """Piecewise-constant spectrum in linear shot-noise units.

    values[i] applies below breakpoints[i] (the first segment starts at 0);
    tail_value applies from the last breakpoint upward.
    """

    breakpoints: tuple
    values: tuple
    tail_value: float

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) != len(vals):
            raise ValueError("need exactly one value per breakpoint")
        if len(bp) == 0:
            raise ValueError("need at least one breakpoint; use a flat spectrum otherwise")
        if not all(b1 < b2 for b1, b2 in zip((0.0,) + bp, bp + (np.inf,))):
            raise ValueError("breakpoints must be finite, positive and strictly ascending")
        tail = float(self.tail_value)
        if not all(0 < v < np.inf for v in vals + (tail,)):
            raise ValueError("segment values must be finite and strictly positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail_value", tail)

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        table = np.asarray(self.values + (self.tail_value,))
        out = table[np.searchsorted(self.breakpoints, f, side="right")]
        return float(out) if out.ndim == 0 else out


def flat_window_variance(level: float, window: PulsedWindow) -> float:
    """Closed form c T / 2 for a flat spectrum of the given level."""
    return float(level) * window.duration / 2.0


def _checked(spectrum):
    def s(nu):
        with np.errstate(over="ignore"):
            out = np.asarray(spectrum(nu), dtype=float)
        if not np.isfinite(out).all():
            raise ValueError(
                "spectrum is unbounded on the integration range; if it diverges "
                "at low frequency, clamp it (e.g. clamp_to_shot_below) to model "
                "a feedback-stabilized source"
            )
        if (out < 0).any():
            raise ValueError("spectrum is negative on the integration range")
        return out

    return s


def _sinc2(u):
    """sin^2(pi u) / (pi u)^2 with the sine taken of pi (u - rint u), whose
    square is the same, so that np.sin never sees an argument beyond pi/2."""
    sinc = np.sin(np.pi * (u - np.rint(u))) / (np.pi * u)
    return sinc * sinc


@functools.cache
def _gl_rule():
    """The GL16 nodes then the GL8 nodes on [-1, 1], and their weights: one
    spectrum call serves both rules. Built on first use, so that importing
    the package does not import numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = np.hstack((leggauss(_N_FINE), leggauss(8)))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _lobe_table():
    """Nodes u = k + (g + 1)/2 of every whole near-field lobe [k, k + 1],
    GL16 then GL8, and their weights: half the GL weight times sinc^2(u).
    Built on first use, so importing the package does not pay for it."""
    gl_nodes, gl_weights = _gl_rule()
    nodes = np.arange(_N_LOBES)[:, None] + 0.5 * (gl_nodes + 1.0)
    weights = 0.5 * gl_weights * _sinc2(nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _lobe_panels(s, t):
    """GL16 value and |GL16 - GL8| of the near-field integrand on each whole
    lobe, from the table; the spectrum is called on at most _CHUNK_NODES
    nodes at a time, which keeps the temporaries below the size whose free
    trims the heap."""
    nodes, weights = _lobe_table()
    fine, coarse = np.empty(_N_LOBES), np.empty(_N_LOBES)
    step = _CHUNK_NODES // nodes.shape[1]
    for c in range(0, _N_LOBES, step):
        rows = slice(c, c + step)
        vals = s((nodes[rows] / t).ravel()).reshape(-1, nodes.shape[1]) * weights[rows]
        fine[rows] = vals[:, :_N_FINE].sum(axis=1)
        coarse[rows] = vals[:, _N_FINE:].sum(axis=1)
    return fine, np.abs(fine - coarse)


def _gl_nodes(a, b):
    """Half-widths of the panels [a, b] and their GL16 then GL8 nodes, panel
    by panel in one flat array."""
    half = 0.5 * (b - a)
    return half, (a[:, None] + half[:, None] * (_gl_rule()[0] + 1.0)).ravel()


def _gl_sums(half, vals):
    """GL16 value and |GL16 - GL8| of each panel from the integrand's values
    at its _gl_nodes."""
    vals = vals.reshape(half.size, -1) * _gl_rule()[1]
    fine = half * vals[:, :_N_FINE].sum(axis=1)
    return fine, np.abs(fine - half * vals[:, _N_FINE:].sum(axis=1))


def _distinct_sorted(*arrays) -> np.ndarray:
    """np.unique of the joined arrays, without the numpy.ma import np.unique
    pays on its first call."""
    joined = np.sort(np.concatenate(arrays))
    return joined[np.diff(joined, prepend=-np.inf) > 0]


def pulsed_variance_with_error(spectrum, window: PulsedWindow) -> tuple[float, float]:
    """Window-filtered noise variance plus a conservative error estimate."""
    t = window.duration
    x = _N_LOBES / t
    s = _checked(spectrum)
    # near field in lobes u = nu T; far field in w = x / nu under the
    # lobe-averaged kernel; both integrals are in units of T. Per field: the
    # frequency at a node, and the integrand from the spectrum's value there
    freq = (lambda u: u / t, lambda w: x / w)
    integrand = (
        lambda u, sv: sv * _sinc2(u),
        lambda w, sv: sv / (2.0 * np.pi**2 * _N_LOBES),
    )

    # whole lobes come from the table; a lobe with a breakpoint inside is cut
    # there into generic panels, dropping the gaps between such lobes;
    # breakpoints beyond x are far-field panel edges
    whole = slice(None)
    lobes, far_edges = _LOBE_STARTS, _FAR_EDGES
    cut_a = cut_b = far_bp = far_at = np.empty(0)
    bp = np.asarray(getattr(spectrum, "breakpoints", ()), dtype=float)
    if bp.size:
        with np.errstate(over="ignore"):  # one beyond the float range lies at w = 0
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

    # one spectrum call for everything outside the lobe table: the far-field
    # breakpoints and the floats just below them, x, then the nodes of the
    # cut-lobe and the far-field panels
    panels = [
        (k, a, b, *_gl_nodes(a, b))
        for k, a, b in ((0, cut_a, cut_b), (1, far_edges[:-1], far_edges[1:]))
        if a.size
    ]
    sv = s(np.concatenate(
        (far_bp, np.nextafter(far_bp, 0.0), [x], *(freq[k](z) for k, *_, z in panels))
    ))
    nf = far_bp.size

    # what the lobe average drops, beyond reach of refinement: the next term
    # of the flat tail's series, and the boundary term of each jump beyond x
    jumps = np.abs(sv[:nf] - sv[nf : 2 * nf])
    averaging_err = float(
        sv[2 * nf] / (4.0 * np.pi**4 * _N_LOBES**3)
        + np.sum(jumps / (4.0 * np.pi**3 * far_at) / far_at)
    )

    # panel table (side, start, end, GL16 value, |GL16 - GL8| error): a
    # refinement overwrites the panel it bisects with the left half and
    # appends the right half, so the table has room for _MAX_REFINEMENTS more
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

    # running sums, started from the per-set sums, drive the convergence
    # test; the reproducible ordered sum happens at the end
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
        # the worst panel: largest error, ties to the lowest start
        tied = np.flatnonzero(error[:n] == error[:n].max())
        if tied.size > 1:
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

    # near field then far field, each by panel start, summed pairwise: reruns
    # stay bit-identical
    order = np.lexsort((start[:n], side[:n]))
    total_err = float(np.sum(error[order])) + averaging_err
    return t * float(np.sum(value[order])), t * total_err


def pulsed_variance(spectrum, window: PulsedWindow) -> float:
    """Noise variance of a window-T measurement of the given source."""
    value, _ = pulsed_variance_with_error(spectrum, window)
    return value


def improvement_factor(spectrum, window: PulsedWindow) -> float:
    """Shot-limited window variance divided by the modeled one."""
    value = pulsed_variance(spectrum, window)
    return flat_window_variance(1.0, window) / value


def clamp_to_shot_below(spectrum, knee: float) -> Spectrum:
    """Cap the spectrum at 1.0 below the knee, as a feedback loop would."""
    if not knee > 0:
        raise ValueError("knee frequency must be positive")

    def clamped(f):
        f = np.asarray(f, dtype=float)
        s = np.asarray(spectrum(f), dtype=float)
        return np.where(f < knee, np.minimum(s, 1.0), s)

    return Spectrum(clamped, "feedback-clamped")
