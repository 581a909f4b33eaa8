"""Noise simulator for a below-threshold type-II OPO squeezing source.

Models the two-mode squeezed vacuum emitted by the cavity, the classical
excess noise of the pump laser, the homodyne detection chain, and the
spectrum-analyzer measurement, plus the noise variance of finite-window
(pulsed) measurements. Everything is shot-noise normalized: vacuum = 1.0.

The public names below are resolved on first access (PEP 562), so
``import sqzsim`` alone imports no submodule and no numpy; this lets
``python -m sqzsim`` configure numpy before it loads.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "classical_noise": ("ClassicalNoiseConfig", "excess_noise", "total_spectrum"),
    "config": ("ConfigError", "RunConfig", "default_config", "load_config"),
    "detection": (
        "DetectionParams", "effective_efficiency", "from_db", "observe",
        "observe_corrected", "observed_relative_to_shot", "to_db",
    ),
    "dsp": (
        "SHOT_NOISE_VARIANCE", "SweepConfig", "TimeSeries", "Trace", "emulate_sweep",
        "normalize_to_shot", "rbw_convolve", "synthesize", "welch_psd",
    ),
    "fileio": (
        "TimeSeriesFormatError", "read_timeseries", "read_trace_json", "write_timeseries",
        "write_trace_csv", "write_trace_json",
    ),
    "opo": ("AboveThresholdError", "OpoParams", "antisqueezed_variance", "squeezed_variance"),
    "pulsed": (
        "PiecewiseSpectrum", "PulsedWindow", "clamp_to_shot_below", "flat_window_variance",
        "improvement_factor", "pulsed_variance", "pulsed_variance_with_error",
    ),
    "quantum": ("duan_inseparability", "obeys_uncertainty"),
    "spectra": ("Spectrum", "TabulatedSpectrum"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
