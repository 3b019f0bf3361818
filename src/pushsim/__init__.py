"""Fault-tolerant push-sum averaging and distributed optimization toolkit."""

__version__ = "0.6.0"

from .audit import (AuditReport, contraction_bound, cross_validate,
                    envelope_check, run_linear_audit, tracking_bound_series,
                    verify_run, wbar_diagnostic, window_positivity_check)
from .errors import (ConfigurationError, InconsistentScheduleError,
                     InvalidTopologyError, ProtocolViolationError,
                     PushsimError, ReferenceSolverError, VerificationError)
from .faultnet import FaultBounds, realize_schedule
from .graph import Topology, build_cycle, build_random_strongly_connected
from .harness import (ExperimentConfig, aggregate_series, ratio_study,
                      replay, run_experiment)
from .objectives import (NoiseModel, QuadraticObjective, SvmObjective,
                         box_noise_model, generate_quadratic,
                         generate_svm_dataset, solve_reference_optimum)
from .optimizer import StepSizeLedger, run_gradient_push
from .pushsum import reference_averaging_run

__all__ = [
    "AuditReport", "contraction_bound", "cross_validate", "envelope_check",
    "run_linear_audit", "tracking_bound_series", "verify_run",
    "wbar_diagnostic", "window_positivity_check",
    "ConfigurationError", "InconsistentScheduleError", "InvalidTopologyError",
    "ProtocolViolationError", "PushsimError", "ReferenceSolverError",
    "VerificationError", "FaultBounds", "realize_schedule",
    "Topology", "build_cycle", "build_random_strongly_connected",
    "ExperimentConfig", "aggregate_series", "ratio_study", "replay",
    "run_experiment", "NoiseModel", "QuadraticObjective", "SvmObjective",
    "box_noise_model", "generate_quadratic", "generate_svm_dataset",
    "solve_reference_optimum", "StepSizeLedger", "run_gradient_push",
    "reference_averaging_run",
]
