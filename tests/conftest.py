import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sqzsim import (
    PiecewiseSpectrum,
    Spectrum,
    clamp_to_shot_below,
    default_config,
    observe_corrected,
    squeezed_variance,
    total_spectrum,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# 50/50 quadrature map from (x1, p1, x2, p2) to (x+, p+, x-, p-)
SUPERPOSITION = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]
) / np.sqrt(2)
OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def physical_by_eigenvalues(s_squeezed: float, s_antisqueezed: float) -> bool:
    """Eigenvalue oracle: V + i Omega >= 0 for the signal/idler covariance V
    whose superposition form is diag(A, S, S, A), both modes alike. eigvalsh
    rounds at a few eps times the largest entry, so the tolerance is relative
    to it."""
    rotated = np.diag([s_antisqueezed, s_squeezed, s_squeezed, s_antisqueezed])
    cov = SUPERPOSITION @ rotated @ SUPERPOSITION.T
    min_eig = np.linalg.eigvalsh(cov + 1j * OMEGA).min()
    scale = max(abs(s_squeezed), abs(s_antisqueezed), 1.0)
    return bool(min_eig >= -16 * np.finfo(float).eps * scale)


def fresh_python(script, *argv):
    """Run script in a new interpreter that imports this checkout's sqzsim;
    return its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def sweep_spectra():
    """The spectra of the benchmark's pulsed sweep, built through the public
    API: the --example spectrum, flat 1.0, the dark-corrected detected chain
    of each mode clamped below the knee, and the bare OPO term."""
    cfg = default_config()

    def chain(mode):
        detected = observe_corrected(total_spectrum(cfg.opo, cfg.noise, mode), cfg.detection)
        return clamp_to_shot_below(detected, cfg.noise.lf_knee)

    return {
        "piecewise": PiecewiseSpectrum(breakpoints=(50e3,), values=(1.0,),
                                       tail_value=10 ** (-3 / 10)),
        "flat": Spectrum.flat(1.0),
        "minus": chain("minus"),
        "plus": chain("plus"),
        "opo": Spectrum(lambda f: squeezed_variance(cfg.opo, f)),
    }
