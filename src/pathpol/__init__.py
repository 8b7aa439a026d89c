"""Deterministic state-vector simulator of a two-source path/polarization
interference bench.

Two classical beams of distinct frequencies are split, polarization-rotated,
symmetrized into a 16-dimensional two-beam state, phase-tuned, and
recombined. The package computes intensity-intensity correlations along two
independent routes (operator expectations and closed-form expressions),
evaluates CHSH-type functionals of the resulting cosine law, and models the
single-detector readout including a time-domain autocorrelation demo.
"""

from .bench import BenchRun, PhaseSetting, SourceSpec, run, symmetrize
from .contextuality import (
    CASE1_SETTING,
    MAX_VIOLATION,
    ScanResult,
    case2_setting,
    functional,
    pair,
    scan_max,
)
from .correlations import (
    CorrelationReport,
    TermEntry,
    correlation_closed_form,
    correlation_numeric,
    correlation_report,
    fit_scaled_cosine,
    fit_sinusoid,
    g2_generalized,
    g2_hbt,
    sum_identity,
)
from .detector import (
    AaProjection,
    AutocorrelationReport,
    autocorrelation_demo,
    autocorrelation_windows,
    detect,
    detector_amplitudes,
    p45_intensity,
    project_aa,
)
from .elements import (
    beam_splitter,
    pol_swap,
)
from .observables import TransferCheckReport, transfer_check
from .scenario import ConfigError, Scenario, SweepSpec, parse_scenario
from .tensor import (
    DIM,
    basis_index,
    basis_label,
    basis_state,
)
from .verify import VerifyCheck, VerifyReport, format_report, run_verify

__version__ = "0.1.0"

__all__ = [
    "AaProjection",
    "AutocorrelationReport",
    "BenchRun",
    "CASE1_SETTING",
    "ConfigError",
    "CorrelationReport",
    "DIM",
    "MAX_VIOLATION",
    "PhaseSetting",
    "ScanResult",
    "Scenario",
    "SourceSpec",
    "SweepSpec",
    "TermEntry",
    "TransferCheckReport",
    "VerifyCheck",
    "VerifyReport",
    "autocorrelation_demo",
    "autocorrelation_windows",
    "basis_index",
    "basis_label",
    "basis_state",
    "beam_splitter",
    "case2_setting",
    "correlation_closed_form",
    "correlation_numeric",
    "correlation_report",
    "detect",
    "detector_amplitudes",
    "fit_scaled_cosine",
    "fit_sinusoid",
    "format_report",
    "functional",
    "g2_generalized",
    "g2_hbt",
    "p45_intensity",
    "pair",
    "parse_scenario",
    "pol_swap",
    "project_aa",
    "run",
    "run_verify",
    "scan_max",
    "sum_identity",
    "symmetrize",
    "transfer_check",
]
