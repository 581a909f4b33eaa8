"""Reference kernels that measure host speed next to each timed operation.

This runs as a helper process that never imports sqzsim, so nothing in the
code under test can speed a kernel up or slow it down. It reads one kernel
name per line on stdin and answers each with ``<wall_s> <cpu_s>``:

* ``quad``    -- a Gauss-Legendre sinc^2 quadrature of a model squeezing
  spectrum, shaped like the pulsed engine's: one numpy pass over 10 000
  panels, a heap of the panels built, heapified and sorted in Python, and a
  refinement loop of small-array panel evaluations;
* ``imports`` -- a fresh interpreter importing numpy and the scipy
  subpackages the CLI uses, the profile of a cold CLI call and of set-up,
  which are almost all interpreter start and imports;
* ``fft``     -- a seeded 2^22-sample normal draw followed by rfft and
  irfft, the memory and FFT profile of the record path.

The kernels do fixed work, so their time moves only with the host. CPU time
counts the helper and, for ``imports``, its child.
"""

import heapq
import resource
import subprocess
import sys
import time

import numpy as np

QUAD_PANELS = 10_000
QUAD_REFINE = 100
QUAD_T = 1e-6
FFT_N = 1 << 22
IMPORTS = "import numpy, scipy.signal, scipy.optimize, scipy.special"

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)


def _integrand(f):
    # a clamped, detected squeezing spectrum under the window's sinc^2: about
    # the array work per frequency of the engine's model-chain spectra, which
    # a lighter integrand tracked poorly
    x2 = (f / 3e6) ** 2
    s = 0.9 * ((0.4**2 + x2) / (1.6**2 + x2)) + 0.1
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    s = s + 0.3 * 0.25e10 / ((f - 1e6) ** 2 + 0.25e10) + 0.05 * (5e4 / f) ** 1.5
    s = 0.9 * s + 0.1
    s = np.where(f < 5e4, np.minimum(s, 1.0), s)
    if np.any(~np.isfinite(s)) or np.any(s < 0):
        raise ValueError("spectrum out of range")
    return s * QUAD_T**2 * np.sinc(f * QUAD_T) ** 2


def _panels(edges, rule):
    nodes, weights = rule
    widths = np.diff(edges)
    x = edges[:-1, None] + 0.5 * widths[:, None] * (nodes[None, :] + 1.0)
    vals = _integrand(x.ravel()).reshape(x.shape)
    return 0.5 * widths * (vals * weights[None, :]).sum(axis=1)


def _panel(a, b, rule):
    nodes, weights = rule
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(weights * _integrand(x)))


def quad_kernel() -> float:
    edges = np.arange(QUAD_PANELS + 1, dtype=float) / QUAD_T
    coarse, fine = _panels(edges, _GL8), _panels(edges, _GL16)
    heap = [(-abs(f - c), a, b, f) for a, b, c, f in zip(edges[:-1], edges[1:], coarse, fine)]
    heapq.heapify(heap)
    for _ in range(QUAD_REFINE):
        _neg, a, b, _f = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            f16, f8 = _panel(lo, hi, _GL16), _panel(lo, hi, _GL8)
            heapq.heappush(heap, (-abs(f16 - f8), lo, hi, f16))
    panels = sorted((a, f) for _, a, _b, f in heap)
    return float(np.sum(np.array([f for _, f in panels])))


def fft_kernel() -> float:
    x = np.random.default_rng(12345).standard_normal(FFT_N)
    y = np.fft.irfft(np.fft.rfft(x), FFT_N)
    return float(y[FFT_N // 2])


def imports_kernel() -> None:
    subprocess.run([sys.executable, "-c", IMPORTS], check=True)


KERNELS = {"quad": quad_kernel, "imports": imports_kernel, "fft": fft_kernel}


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    for line in sys.stdin:
        kernel = KERNELS[line.strip()]
        c0, t0 = _cpu(), time.perf_counter()
        kernel()
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        sys.stdout.write(f"{wall!r} {cpu!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
