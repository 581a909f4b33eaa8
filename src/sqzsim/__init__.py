"""Noise simulator for a below-threshold type-II OPO squeezing source.

Models the two-mode squeezed vacuum emitted by the cavity, the classical
excess noise of the pump laser, the homodyne detection chain, and the
spectrum-analyzer measurement, plus the noise variance of finite-window
(pulsed) measurements. Everything is shot-noise normalized: vacuum = 1.0.
"""

from .classical_noise import ClassicalNoiseConfig, excess_noise, total_spectrum
from .config import ConfigError, RunConfig, default_config, load_config
from .detection import (
    DetectionParams,
    effective_efficiency,
    from_db,
    observe,
    observe_corrected,
    observed_relative_to_shot,
    to_db,
)
from .dsp import (
    SHOT_NOISE_VARIANCE,
    SweepConfig,
    TimeSeries,
    Trace,
    emulate_sweep,
    normalize_to_shot,
    rbw_convolve,
    synthesize,
    welch_psd,
)
from .fileio import (
    TimeSeriesFormatError,
    read_timeseries,
    read_trace_json,
    write_timeseries,
    write_trace_csv,
    write_trace_json,
)
from .opo import (
    AboveThresholdError,
    OpoParams,
    antisqueezed_variance,
    squeezed_variance,
)
from .pulsed import (
    PiecewiseSpectrum,
    PulsedWindow,
    clamp_to_shot_below,
    flat_window_variance,
    improvement_factor,
    pulsed_variance,
    pulsed_variance_with_error,
)
from .quantum import ModeVariancePair, duan_inseparability, obeys_uncertainty
from .spectra import Spectrum, TabulatedSpectrum

__version__ = "0.1.0"
