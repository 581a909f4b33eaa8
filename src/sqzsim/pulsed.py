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
quadrature, so the half-line is split at u = N (N = 250 lobes, nu = x =
N/T). The near field u < N gets one panel per lobe [k, k+1]. Whole lobes
take their nodes and weights from one table, built on first use: the
Gauss-Legendre nodes of each lobe (the 16- and 8-point rules, written out)
with sinc^2 there folded into the weights, exact to rounding because
sin^2(pi (k + v)) = sin^2(pi v) keeps the sine's argument within pi/2. The
table is node-major, 24 rows of 250 lobes, so each lobe's sums are adds of
whole rows. The far field u > N takes the lobe-averaged kernel
1/(2 pi^2 u^2) in w = N/u, where the integrand is S(x/w) / (2 pi^2 N) on
(0, 1] (a node whose x/w is beyond the float range lies at +inf).

Every other panel is generic, and the generic panels are one set: first the
pieces of each lobe that a spectrum breakpoint falls inside, between its
sorted distinct edges (side 0, in u), then the far field (side 1, in w),
graded towards w = 0: its eighths, with the first eighth halved twelve
times down to 1/8 2^-12, so that a spectrum's features far above x (such
as the OPO Lorentzian for T of a millisecond and more) meet panels their
own width, and with the breakpoints beyond x as further edges. Each
breakpoint is classed once, against x in Hz: below x it may cut a lobe,
beyond x it is a far jump, and at x it is neither, as the far field starts
at S(x). A spectrum declares a handful of breakpoints, so their positions
b T and the panel edges are worked out in Python floats, and a spectrum
that declares none pays for no cut lobe or far jump. An evaluation that
needs no bisection calls the spectrum once: the far-field breakpoints, x
and the nodes of the generic set first, then the 6000 nodes of the lobe
table; the set's GL16 and GL8 sums are taken in one pass. One panel table
holds the whole lobes, then the generic set; its side and edge columns are
built only when a panel is first bisected. Its worst panel, the first row
of any tied for the largest error, is bisected until the summed estimate
(16 nodes, checked against 8) meets the relative tolerance. Its row takes
the left half in place, the right half is appended as a new row, and one
running sum per column changes by the halves' difference; the result sums
the table's columns in table order. A bisection whose halves are not known
yet looks ahead: the panel's bisection subtree, three levels deep (14
panels, 336 nodes, each edge the midpoint 0.5 (lo + hi) that a later
bisection forms), takes one spectrum call and one pass of sums, and the
halves of each subtree panel are kept by (side, start, end), so the next
two levels of bisection down that panel call the spectrum no more.
So the spectrum is evaluated at nodes of panels that may never be
bisected; they lie inside the integration range, so a value there that is
not finite, or is negative, is refused like any other.

The lobe average misses sinc^2 - 1/(2 pi^2 u^2) = -cos(2 pi u) / (2 pi^2 u^2)
beyond N. For a spectrum flat from x on that is S(x) C(N), and above a jump
dS at a breakpoint b > x it is dS C(b T), both of which _far_jump gives in
closed form: the value adds each, and the error each jump's series
remainder. For what the spectrum's own variation above x makes of that
kernel, the error adds the size of the smooth term, S(x) T / (4 pi^4 N^3).
No bisection reduces these errors, so where they alone exceed the
tolerance the engine refuses at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, elementwise, in_domain

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
_N_LOBES = 250
_REL_TOL = 1e-6
_MAX_REFINEMENTS = 4000
_LOOKAHEAD = 3
# the far field's panel edges in w: 0, the first eighth halved twelve times,
# then the eighths
_FAR_EDGES = (0.0, *(0.125 * 2.0**-j for j in range(12, 0, -1)), *(k / 8 for k in range(1, 9)))


@dataclass(frozen=True)
class PulsedWindow:
    """Rectangular integration window of the given duration in seconds."""

    duration: float

    def __post_init__(self):
        in_domain("duration", self.duration, "(0, inf)")
        if not math.isfinite(_N_LOBES / float(self.duration)):
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
        # the arrays a call looks up, built once; they are no fields, so
        # equality, repr and dataclasses.replace see the tuples alone
        edges, table = np.array(bp), np.array(vals + (tail,))
        edges.flags.writeable = table.flags.writeable = False
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_table", table)

    @elementwise
    def __call__(self, f):
        return self._table[np.searchsorted(self._edges, f, side="right")]


def flat_window_variance(level: float, window: PulsedWindow) -> float:
    """Closed form c T / 2 for a flat spectrum of the given level."""
    return float(level) * window.duration / 2.0


def _checked(spectrum):
    def s(nu):
        out = np.asarray(spectrum(nu), dtype=float)
        if out.size:
            # NaN propagates through min, and +-inf shows in min or max, so
            # one pass each tests finiteness first and the sign second
            lo, hi = out.min(), out.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(
                    "spectrum is unbounded on the integration range; if it diverges "
                    "at low frequency, clamp it (e.g. clamp_to_shot_below) to model "
                    "a feedback-stabilized source"
                )
            if lo < 0:
                raise ValueError("spectrum is negative on the integration range")
        return out

    return s


def _sinc2(u):
    """sin^2(pi u) / (pi u)^2 with the sine taken of pi (u - rint u), whose
    square is the same, so that np.sin never sees an argument beyond pi/2."""
    sinc = np.sin(np.pi * (u - np.rint(u))) / (np.pi * u)
    return sinc * sinc


# the Gauss-Legendre rules on [-1, 1], 16 points then 8: the nodes and
# weights numpy.polynomial.legendre.leggauss gives, written out so that no
# command imports numpy.polynomial or solves an eigenproblem for them
_GL_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
)
_GL_WEIGHTS = np.array((
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
))
# the nodes shifted by +1 onto [0, 2], so that one spectrum call serves both
# rules on a panel
_GL_SHIFTED = np.array(_GL_NODES) + 1.0
_GL_SHIFTED.flags.writeable = _GL_WEIGHTS.flags.writeable = False


@functools.cache
def _lobe_table():
    """Nodes u = k + (g + 1)/2 of every whole near-field lobe [k, k + 1] and
    their weights, half the GL weight times sinc^2(u), node-major: row i
    holds rule node i (GL16 then GL8) of every lobe, lobe k in column k.
    Built on first use, so importing the package does not pay for it."""
    nodes = 0.5 * _GL_SHIFTED[:, None] + np.arange(_N_LOBES)
    weights = 0.5 * _GL_WEIGHTS[:, None] * _sinc2(nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _pairwise(rows):
    """Column sums of 2^j rows in the order numpy's sum takes 8 or 16
    contiguous terms: with a_i + a_(i+8) already formed for 16, it is
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), added to the 0.0 that
    sum starts from (which only turns a -0.0 into 0.0)."""
    while len(rows) > 1:
        rows = rows[0::2] + rows[1::2]
    return rows[0] + 0.0


def _lobe_panels(product):
    """GL16 value and |GL16 - GL8| of the near-field integrand on each whole
    lobe, from the product table: the spectrum's values at the lobe table's
    nodes times its weights. The GL16 and GL8 sums are row adds over whole
    lobes, equal bit for bit to the row sums numpy takes of the lobe-major
    table."""
    fine = _pairwise(product[: _N_FINE // 2] + product[_N_FINE // 2 : _N_FINE])
    return fine, np.abs(fine - _pairwise(product[_N_FINE:]))


def _far_jump(a):
    """C(a) = int_a^inf (sinc^2(pi u) - 1 / (2 pi^2 u^2)) du, what the lobe
    average misses above a unit jump at a > N lobes, and a bound of what its
    series leaves out. With y = 2 pi a, the auxiliary functions of Si
    (Abramowitz & Stegun 5.2.8-5.2.9, 5.2.34-5.2.35) give

        C(a) = (sin y / y^2 - 2 cos y / y^3 - 6 sin y / y^4 + 24 cos y / y^5) / pi

    and the first neglected pair, (120 / y^6 + 720 / y^7) / pi, bounds the
    rest wherever y > 17. The sine and cosine are taken of 2 pi (a - rint a),
    as in _sinc2, and the powers of y are those of r = 1 / y, which is 0
    where y lies beyond the float range: both terms are 0 there, as the
    exact ones are to rounding."""
    r = 1.0 / (2.0 * math.pi * a)
    if r == 0.0:
        return 0.0, 0.0
    phase = 2.0 * math.pi * math.remainder(a, 1.0)
    sin, cos = math.sin(phase), math.cos(phase)
    r2 = r * r
    return (r2 * (sin - r * (2.0 * cos + r * (6.0 * sin - 24.0 * r * cos))) / math.pi,
            r2 * r2 * r2 * (120.0 + 720.0 * r) / math.pi)


def _gl_nodes(a, b):
    """Half-widths of the panels [a, b] and their GL16 then GL8 nodes, panel
    by panel in one flat array."""
    half = 0.5 * (b - a)
    return half, (a[:, None] + half[:, None] * _GL_SHIFTED).ravel()


def _gl_sums(half, vals):
    """GL16 value and |GL16 - GL8| of each panel from the integrand's values
    at its _gl_nodes."""
    vals = vals.reshape(half.size, -1) * _GL_WEIGHTS
    fine = half * vals[:, :_N_FINE].sum(axis=1)
    return fine, np.abs(fine - half * vals[:, _N_FINE:].sum(axis=1))


# overflow is ignored in the spectrum calls and in x / w, where a node beyond
# the float range lies at +inf; the engine's own sums stay below half the
# largest spectrum value, which the range check bounds
@np.errstate(over="ignore")
def pulsed_variance_with_error(spectrum, window: PulsedWindow) -> tuple[float, float]:
    """Window-filtered noise variance plus a conservative error estimate."""
    t = window.duration
    x = _N_LOBES / t
    s = _checked(spectrum)

    # side 0 is the near field in lobes u = nu T, side 1 the far field in
    # w = x / nu under the lobe-averaged kernel; both integrals are in units of
    # T. Per side: the frequencies at nodes z, and the integrand from the
    # spectrum's values sv there, in a new array: sv is never written
    def nu(side, z):
        return z / t if side == 0 else x / z

    def integrand(side, z, sv):
        return sv * _sinc2(z) if side == 0 else sv / (2.0 * np.pi**2 * _N_LOBES)

    # whole lobes come from the table; a lobe with a breakpoint inside is cut
    # there into generic panels, and breakpoints beyond x are far-field panel
    # edges, besides the graded ones. Each breakpoint is classed once,
    # against x in Hz, as b T rounds: one at x is neither a cut nor a jump,
    # and the w edge of one beyond x is at most 1. A spectrum declares a
    # handful of breakpoints, so this runs on Python floats, in which b T
    # beyond the float range is inf without a warning: an edge at w = 0
    cut_edges = {}  # cut lobe k: its edges k, k + 1 and the breakpoints inside
    far = set()  # the distinct breakpoints beyond x, each a jump counted once
    for b in np.asarray(getattr(spectrum, "breakpoints", ()), dtype=float).ravel().tolist():
        u = b * float(t)
        if b > x:
            far.add(b)
        elif b < x and 0 < u < _N_LOBES and u != math.floor(u):
            k = math.floor(u)
            cut_edges.setdefault(k, {float(k), k + 1.0}).add(u)
    far_bp = sorted(far)
    far_at = [max(b * float(t), _N_LOBES) for b in far_bp]
    cut_lobes = sorted(cut_edges)
    cut = [sorted(cut_edges[k]) for k in cut_lobes]
    cut_a = [lo for edges in cut for lo in edges[:-1]]
    cut_b = [hi for edges in cut for hi in edges[1:]]
    far_edges = sorted({*_FAR_EDGES, *(_N_LOBES / u for u in far_at)})

    # the generic panels as one set: the cut lobes' pieces (side 0), then the
    # far field's (side 1), so the first m nodes are the cut lobes'
    gen_a, gen_b = np.array(cut_a + far_edges[:-1]), np.array(cut_b + far_edges[1:])
    half, z = _gl_nodes(gen_a, gen_b)
    m, nf = len(cut_a) * _GL_SHIFTED.size, len(far_bp)

    # one spectrum call for all of it: the far-field breakpoints and the
    # floats just below them, x, the generic nodes, then the lobe table's
    nodes, weights = _lobe_table()
    sv = s(np.concatenate((
        far_bp + [math.nextafter(b, 0.0) for b in far_bp] + [x], nu(0, z[:m]), nu(1, z[m:]),
        (nodes / t).ravel(),
    )))

    # what the lobe average misses beyond x, in closed form: S(x) C(N) for
    # the spectrum's level there, and dS C(b T) for each far jump dS, with
    # its series remainder as error. The smooth term's size stays as error,
    # for what the spectrum's variation above x makes of it, beyond reach of
    # refinement
    level = float(sv[2 * nf])  # S(x)
    smooth_err = level / (4.0 * np.pi**4 * _N_LOBES**3)
    far_value, jump_err = level * _far_jump(_N_LOBES)[0], []
    for jump, u in zip((sv[:nf] - sv[nf : 2 * nf]).tolist(), far_at):
        term, remainder = _far_jump(u)
        far_value += jump * term
        jump_err.append(abs(jump) * remainder)
    averaging_err = smooth_err + sum(jump_err)
    table_sv = sv[sv.size - nodes.size :].reshape(nodes.shape)
    sv = sv[2 * nf + 1 : sv.size - nodes.size]
    generic_fine, generic_err = _gl_sums(
        half, np.concatenate((integrand(0, z[:m], sv[:m]), integrand(1, z[m:], sv[m:])))
    )

    # panel table (side, start, end, GL16 value, |GL16 - GL8| error): the
    # whole lobes, then the generic panels. A refinement overwrites the panel
    # it bisects with the left half and appends the right half, so the table
    # has room for _MAX_REFINEMENTS more. Only a bisection reads a panel's
    # side and edges, so those columns are built for the first one
    fine, err = _lobe_panels(table_sv * weights)
    if cut_lobes:
        fine, err = np.delete(fine, cut_lobes), np.delete(err, cut_lobes)
    n = fine.size + gen_a.size
    value, error = np.empty(n + _MAX_REFINEMENTS), np.empty(n + _MAX_REFINEMENTS)
    np.concatenate((fine, generic_fine), out=value[:n])
    np.concatenate((err, generic_err), out=error[:n])
    side = start = end = None

    # one running sum per column, plus the far-field terms, drives the
    # convergence test. No bisection reduces the lobe-average term: refuse at
    # once when it alone exceeds the tolerance, even at the largest value the
    # bisected error allows, naming its largest term
    value_sum, err_sum = float(value[:n].sum()) + far_value, float(error[:n].sum())
    if averaging_err > _REL_TOL * (abs(value_sum) + err_sum):
        j = max(range(nf), key=jump_err.__getitem__, default=None)
        raise RuntimeError(
            f"window-variance quadrature cannot reach the requested tolerance: the lobe "
            f"average beyond {x:.6g} Hz drops {t * averaging_err:.3g} against a variance "
            f"of {t * value_sum:.3g}, and no refinement reduces it; its largest term is "
            + ("the smooth far field" if j is None or smooth_err >= jump_err[j]
               else f"the jump at {far_bp[j]:.6g} Hz ({far_at[j]:.6g} lobes)")
        )
    err_sum += averaging_err

    halves = {}  # (side, start, end) of a panel: its halves' GL16 values, then errors
    while err_sum > _REL_TOL * abs(value_sum) and abs(value_sum) != 0.0:
        if side is None:  # the first bisection: the side and edge columns
            lobes = np.delete(np.arange(float(_N_LOBES)), cut_lobes)
            side = np.zeros(value.size, dtype=np.int8)
            side[lobes.size + len(cut_a) : n] = 1
            start, end = np.empty(value.size), np.empty(value.size)
            np.concatenate((lobes, gen_a), out=start[:n])
            np.concatenate((lobes + 1.0, gen_b), out=end[:n])
        if n == value.size:
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
        # bisect the worst panel, the first of any tied for the largest
        # error. Halves not known yet come with those of the panel's whole
        # bisection subtree, _LOOKAHEAD levels deep, from one spectrum call:
        # its panels in heap order (panel i has the halves 2i + 1 and
        # 2i + 2), each edge formed as mid is, so that a row bisected later
        # finds its halves by key
        w = int(error[:n].argmax())
        a, b, k = start.item(w), end.item(w), side.item(w)
        mid = 0.5 * (a + b)
        if (k, a, b) not in halves:
            lo, hi = [a], [b]
            for i in range(2**_LOOKAHEAD - 1):
                m = 0.5 * (lo[i] + hi[i])
                lo += lo[i], m
                hi += m, hi[i]
            half, z = _gl_nodes(np.array(lo[1:]), np.array(hi[1:]))
            f, e = (col.tolist() for col in _gl_sums(half, integrand(k, z, s(nu(k, z)))))
            for i in range(2**_LOOKAHEAD - 1):
                halves[k, lo[i], hi[i]] = f[2 * i], f[2 * i + 1], e[2 * i], e[2 * i + 1]
        fine_a, fine_b, err_a, err_b = halves.pop((k, a, b))
        value_sum += (fine_a + fine_b) - value.item(w)
        err_sum += (err_a + err_b) - error.item(w)
        # the left half overwrites the panel's row, the right half is appended
        end[w], value[w], error[w] = mid, fine_a, err_a
        side[n], start[n], end[n], value[n], error[n] = k, mid, b, fine_b, err_b
        n += 1

    return t * (float(value[:n].sum()) + far_value), t * (float(error[:n].sum()) + averaging_err)


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
        # min(S, inf) is S bit for bit, NaN, +-inf and -0.0 included; the
        # result is a fresh array, so the wrapped one is never written
        return np.minimum(spectrum(f), np.where(f < knee, 1.0, np.inf))

    return Spectrum(clamped, "feedback-clamped")
