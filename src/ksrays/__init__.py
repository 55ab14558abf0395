"""Exact analysis of Kochen-Specker ray configurations on three qubits."""

from .rays import (
    GaussianInt,
    Ray,
    Configuration,
    make_ray,
    inner_product,
    load_vectors,
    dump_vectors,
)
from .orthograph import (
    Signature,
    signature,
    count_cliques,
    count_anticliques,
    maximal_cliques,
    is_saturated,
    steiner_check,
    capacity,
)
from .colouring import (
    Colouring,
    CriticalReport,
    find_ks_colouring,
    is_ks_configuration,
    is_critical,
    find_partition_colouring,
    verify_partition_colouring,
    critical_reduce,
)
from .tropical import (
    TropicalWitness,
    admits_anticlique_section,
    tropical_dimension,
)
from .entropy import (
    ProbabilityWeight,
    EntropyReport,
    entropy_report,
    minimize_entropy,
    validate_probability_weight,
)
from .datasets import builtin, build_transform_T, capacity_pipeline

__all__ = [
    "TropicalWitness",
    "admits_anticlique_section",
    "tropical_dimension",
    "ProbabilityWeight",
    "EntropyReport",
    "entropy_report",
    "minimize_entropy",
    "validate_probability_weight",
    "capacity_pipeline",
    "GaussianInt",
    "Ray",
    "Configuration",
    "make_ray",
    "inner_product",
    "load_vectors",
    "dump_vectors",
    "Signature",
    "signature",
    "count_cliques",
    "count_anticliques",
    "maximal_cliques",
    "is_saturated",
    "steiner_check",
    "capacity",
    "Colouring",
    "CriticalReport",
    "find_ks_colouring",
    "is_ks_configuration",
    "is_critical",
    "find_partition_colouring",
    "verify_partition_colouring",
    "critical_reduce",
    "builtin",
    "build_transform_T",
]

__version__ = "0.1.0"
