"""Entanglement swapping with photon-number-encoded qubits over lossy channels.

The package simulates the protocol two independent ways (closed forms
and a brute-force dilation pipeline), quantifies the heralded
entanglement, and emulates the coincidence-count experiment with Poisson
statistics. See the README for the CLI and the sweep recipes.
"""

__version__ = "0.1.0"

from .states import (
    ATOL,
    PSD_MIN_EIG,
    DensityMatrix,
    LabelError,
    PureState,
    ValidationReport,
    partial_trace,
    project,
    tensor,
    validate,
)
from .loss import LossChannel, apply_loss, dilate, kraus_ops
from .protocol import (
    A,
    B,
    C1,
    C2,
    E1,
    E2,
    MAX_ENTANGLED_PAIR,
    BsmSetting,
    InputPair,
    SwapOutcome,
    asymptotic_state,
    bsm,
    build_inputs,
    closed_form_rho,
    optimal_inputs,
    propagate,
    random_input_pair,
    success_probability,
    swap,
)
from .metrics import (
    FringeScan,
    VisibilityReport,
    bell_fidelity,
    concurrence_closed_form,
    concurrence_wootters,
    fringe_scan,
    optimal_t2,
    visibility_analytic,
)
from .experiment import (
    CountModel,
    SpdcSource,
    SynthCounts,
    estimate_visibility,
    normalized_success,
    pump_split,
    spdc_input,
    synth_counts,
)
from .config import ConfigError, SweepConfig, to_text, validate_config

__all__ = [
    "__version__",
    # states
    "ATOL", "PSD_MIN_EIG", "DensityMatrix", "LabelError", "PureState",
    "ValidationReport", "partial_trace", "project", "tensor", "validate",
    # loss
    "LossChannel", "apply_loss", "dilate", "kraus_ops",
    # protocol
    "A", "B", "C1", "C2", "E1", "E2", "MAX_ENTANGLED_PAIR", "BsmSetting",
    "InputPair", "SwapOutcome", "asymptotic_state", "bsm", "build_inputs",
    "closed_form_rho", "optimal_inputs", "propagate", "random_input_pair",
    "success_probability", "swap",
    # metrics
    "FringeScan", "VisibilityReport", "bell_fidelity",
    "concurrence_closed_form", "concurrence_wootters", "fringe_scan",
    "optimal_t2", "visibility_analytic",
    # experiment
    "CountModel", "SpdcSource", "SynthCounts", "estimate_visibility",
    "normalized_success", "pump_split", "spdc_input", "synth_counts",
    # config
    "ConfigError", "SweepConfig", "to_text", "validate_config",
]
