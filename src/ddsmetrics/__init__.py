"""Worst-case error and harmonic-distortion metrology for clocked sine synthesis."""

from .signals import (
    MAX_BITS,
    ModelKind,
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
    digitized_sample,
    held_sample,
    quantize_sample,
    sin_turns,
    sin_turns_array,
    target_sample,
)
from .bounds import (
    BoundVariant,
    digitized_error_bound,
    full_scale_range,
    held_error_bound,
    max_phase_shift,
    min_clock_frequency,
    quantization_error_bound,
)
from .metrics import (
    DFT_SIZE_CAP,
    MAX_PIECES,
    CapExceeded,
    DegenerateSignalError,
    MetricsReport,
    SamplingPlan,
    Spectrum,
    evaluate,
    max_abs_error,
    probe_times,
    spectrum_dft,
    spectrum_exact_staircase,
    staircase_values,
    thd,
)
from .sweeps import (
    SweepResult,
    SweepRow,
    SweepSpec,
    multiplier_axis,
    snap_multiplier,
    sweep_bits,
    sweep_grid,
    sweep_multiplier,
)
from .charts import ChartKind, ChartStyle, render_heatmap, render_line_chart
from . import reporting

__version__ = "0.1.0"
