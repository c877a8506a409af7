"""stablecut: generate, certify, and solve gamma-stable Max-Cut instances."""

from .combinatorial import (
    HighDegreeResult,
    MergeStep,
    build_conflict_graph,
    find_max_cut_greedy,
    high_degree_solve,
)
from .dualsdp import (
    DualSolution,
    polish_cut,
    solve_min_trace,
)
from .errors import (
    DimensionError,
    SizeLimitError,
    StableCutError,
    ValidationError,
)
from .generators import (
    WeightDistribution,
    cross_product_amplify,
    gen_gnp_simple,
    gen_planted,
    stabilize_by_scaling,
)
from .graph import (
    Cut,
    WeightedGraph,
    cut_value,
    dumps_graph,
    load_graph,
    loads_graph,
    save_graph,
)
from .oracle import (
    DEFAULT_ENUM_LIMIT,
    StabilityReport,
    brute_force_max_cut,
    local_stability_gamma,
    stability_report,
)
from .spectral import (
    ConditionVerdict,
    SpectralCertificate,
    bottom_spectrum,
    build_certificate,
    build_diagonal_from_cut,
    eigen_smallest_two,
    family_condition_checks,
    psd_sufficient_margin,
    spectral_partition,
)

__version__ = "0.1.0"
