"""Exact causal inference on small discrete Bayesian networks.

Interventional distributions by truncated factorization, back-door
adjustment, two-stage sufficient-confounder selection, and exact bias
analysis of conditioning on associative (non-causal) confounders.
"""

from .bayesnet import (
    Cpt,
    Dataset,
    DiscreteBayesNet,
    Factor,
    Variable,
    empirical_joint,
    forward_sample,
    joint,
    query,
    validate,
)
from .errors import (
    CausalbnError,
    CycleError,
    DegenerateEndpoints,
    DomainError,
    EmptyDataset,
    InfeasibleEndpoints,
    ParseError,
    PositivityViolation,
    SizeCapExceeded,
    StructureError,
    UnknownNode,
    UnknownVariable,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .graph import (
    Dag,
    ancestors,
    backdoor_admissible,
    d_separated,
    descendants,
    topological_order,
)
from .intervention import (
    EffectReport,
    SelectionResult,
    ace,
    adjusted_estimate,
    conditioning_bias,
    effect_report,
    interventional_distribution,
    select_sufficient_confounders,
    unadjusted_estimate,
)
from .latent import (
    CommonCauseDecomposition,
    ScanResult,
    ScenarioParams,
    bias_scan,
    build_scenario,
    classify_interaction,
    correlation_feasible,
    decompose_common_cause,
    dependence_strength,
    scan_parameters,
    scan_summary,
    scan_to_csv,
    third_correlation_interval,
    with_parameters,
)
from .modelfile import (
    BUNDLED_MODELS,
    bundled_model_text,
    load_model,
    parse_model,
    serialize_model,
)

__version__ = "0.1.0"
