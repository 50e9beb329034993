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
from .metrics import MAX_PIECES, CapExceeded, MetricsReport, evaluate
from .sweeps import (
    SweepResult,
    SweepSpec,
    multiplier_axis,
    snap_multiplier,
    sweep_bits,
    sweep_grid,
    sweep_multiplier,
)
from .charts import EmptyChart, render_sweep
from . import reporting

__version__ = "0.1.0"
