"""Deterministic state-vector simulator of a two-source path/polarization
interference bench.

Two classical beams of distinct frequencies are split, polarization-rotated,
symmetrized into a 16-dimensional two-beam state, phase-tuned, and
recombined. The package computes intensity-intensity correlations along two
independent routes (operator expectations and closed-form expressions),
evaluates CHSH-type functionals of the resulting cosine law, and models the
single-detector readout including a time-domain autocorrelation demo.
"""

from .bench import (
    BenchState,
    PhaseSetting,
    SourceSpec,
    Stage,
    apply_bs_prime,
    evolve_prestate,
    pipeline_trace,
    symmetrize,
    symmetrized_input,
)
from .contextuality import (
    CASE1_SETTING,
    MAX_VIOLATION,
    ScanResult,
    c_bar,
    c_tilde,
    case2_setting,
    s_prime_value,
    s_value,
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
    detect,
    detector_amplitudes,
    p45_intensity,
    project_aa,
)
from .elements import (
    beam_splitter,
    path_phase,
    pol_phase,
    pol_swap,
)
from .observables import (
    SigmaSpec,
    TransferCheckReport,
    transfer_check,
)
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
    "BenchState",
    "CASE1_SETTING",
    "ConfigError",
    "CorrelationReport",
    "DIM",
    "MAX_VIOLATION",
    "PhaseSetting",
    "ScanResult",
    "Scenario",
    "SigmaSpec",
    "SourceSpec",
    "Stage",
    "SweepSpec",
    "TermEntry",
    "TransferCheckReport",
    "VerifyCheck",
    "VerifyReport",
    "apply_bs_prime",
    "autocorrelation_demo",
    "basis_index",
    "basis_label",
    "basis_state",
    "beam_splitter",
    "c_bar",
    "c_tilde",
    "case2_setting",
    "correlation_closed_form",
    "correlation_numeric",
    "correlation_report",
    "detect",
    "detector_amplitudes",
    "evolve_prestate",
    "fit_scaled_cosine",
    "fit_sinusoid",
    "format_report",
    "g2_generalized",
    "g2_hbt",
    "p45_intensity",
    "parse_scenario",
    "path_phase",
    "pipeline_trace",
    "pol_phase",
    "pol_swap",
    "project_aa",
    "run_verify",
    "s_prime_value",
    "s_value",
    "scan_max",
    "sum_identity",
    "symmetrize",
    "symmetrized_input",
    "transfer_check",
]
