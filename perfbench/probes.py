"""Layer probes for the traced run: wrappers placed around calls into sqzsim.

The probes sit in the benchmark, never in the package. A ``Tracer`` hands
out wrappers that add busy time, call counts and work counts to one flat
dict of per-layer figures. Untraced runs build no Tracer and call the
package directly, so they contain no wrapper at all.

Nothing in the package waits on another thread or process, so every span's
waiting time is zero by construction and no waiting figure is recorded.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


def spectrum_family(spectrum) -> str:
    """'simple' for piecewise and flat spectra, 'chain' for model spectra."""
    if hasattr(spectrum, "breakpoints"):
        return "simple"
    if str(getattr(spectrum, "label", "")).startswith("flat"):
        return "simple"
    return "chain"


class _ProbedSpectrum:
    """Callable spectrum that records time and frequencies evaluated.

    Only the outermost probe of each key records, so nested wrappers of the
    same chain are counted once. Attribute reads (``breakpoints``, ``label``)
    are forwarded to the wrapped spectrum.
    """

    def __init__(self, tracer: "Tracer", spectrum, keys):
        self._tracer = tracer
        self._inner = spectrum
        self._keys = tuple(keys)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, f):
        tr = self._tracer
        active = [k for k in self._keys if tr.depth[k] == 0]
        for k in self._keys:
            tr.depth[k] += 1
        t0 = time.perf_counter()
        try:
            return self._inner(f)
        finally:
            dt = time.perf_counter() - t0
            for k in self._keys:
                tr.depth[k] -= 1
            points = _size(f)
            for k in active:
                tr.stats[f"{k}_s"] += dt
                tr.stats[f"{k}_points"] += points


def _size(f) -> int:
    size = getattr(f, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """Accumulates per-layer busy time and counts across traced calls."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.depth = defaultdict(int)

    def probe_spectrum(self, spectrum, *keys):
        return _ProbedSpectrum(self, spectrum, keys)

    def chain(self, build):
        """Wrap a spectrum constructor so what it builds counts as chain work."""

        def built(*args, **kwargs):
            return self.probe_spectrum(build(*args, **kwargs), "spectra.chain")

        return built

    def timed(self, name, fn, count=None):
        """Wrap fn so its busy time adds to ``<name>_s``; ``count(result,
        args)`` may return extra figures to add."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stats[f"{name}_s"] += time.perf_counter() - t0
            if count is not None:
                for key, value in count(out, args).items():
                    self.stats[key] += value
            return out

        return wrapper

    def pulsed(self, fn):
        """Wrap pulsed_variance_with_error: busy, self and failure figures
        split by spectrum family; self time excludes the spectrum callable."""

        def wrapper(spectrum, window, **kwargs):
            fam = spectrum_family(spectrum)
            keys = ("pulsed.inner",) + (("spectra.chain",) if fam == "chain" else ())
            probed = self.probe_spectrum(spectrum, *keys)
            inner0 = self.stats["pulsed.inner_s"]
            self.stats["pulsed.calls"] += 1
            t0 = time.perf_counter()
            try:
                return fn(probed, window, **kwargs)
            except Exception:
                self.stats["pulsed.failed"] += 1
                raise
            finally:
                busy = time.perf_counter() - t0
                inner = self.stats["pulsed.inner_s"] - inner0
                for prefix in ("pulsed", f"pulsed.{fam}"):
                    self.stats[f"{prefix}.busy_s"] += busy
                    self.stats[f"{prefix}.self_s"] += busy - inner

        return wrapper

    def file_io(self, name, fn):
        """Wrap a .sqts reader or writer; counts the bytes of the file."""

        def count(_out, args):
            return {"fileio.bytes": os.path.getsize(args[0])}

        return self.timed(name, fn, count)

    def welch(self, fn):
        """Wrap welch_psd; counts 50%-overlapped segments from its output."""

        def count(psd, args):
            nperseg = 2 * (psd.freqs.size - 1)
            step = nperseg // 2
            return {"dsp.welch_segments": 1 + (len(args[0]) - nperseg) // step}

        return self.timed("dsp.welch_psd", fn, count)

    def layer_figures(self) -> dict:
        """The per-layer figures this tracer can give, zero where unused."""
        s = self.stats
        out = {
            "pulsed.calls": s["pulsed.calls"],
            "pulsed.failed": s["pulsed.failed"],
            "pulsed.spectrum_points": s["pulsed.inner_points"],
            "spectra.chain_s": s["spectra.chain_s"],
            "spectra.chain_points": s["spectra.chain_points"],
            "dsp.synthesize_s": s["dsp.synthesize_s"],
            "dsp.welch_psd_s": s["dsp.welch_psd_s"],
            "dsp.welch_segments": s["dsp.welch_segments"],
            "dsp.emulate_sweep_s": s["dsp.emulate_sweep_s"],
            "fileio.write_s": s["fileio.write_s"],
            "fileio.read_s": s["fileio.read_s"],
            "fileio.bytes": s["fileio.bytes"],
            "cli.main_s": s["cli.main_s"],
        }
        for prefix in ("pulsed", "pulsed.simple", "pulsed.chain"):
            out[f"{prefix}.busy_s"] = s[f"{prefix}.busy_s"]
            out[f"{prefix}.self_s"] = s[f"{prefix}.self_s"]
        return out


def rss_mb(field: str = "VmRSS") -> float:
    """Resident set size of this process from /proc/self/status, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not found in /proc/self/status")
