"""Graph gadget constructions, step-graphon kernel algebra, homomorphism
densities, inequality verification suites, and counterexample search."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    RootedGraph,
    ReplacementSpec,
    Theorem12Case,
    Theorem12Classification,
    classify_theorem12,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    flower,
    generalized_theta,
    path_graph,
    replace_edges,
    replace_edges_nonuniform,
    semidirect_product,
    subdivide,
)
from .stepgraphon import (
    LocalDensityReport,
    StepGraphon,
    counting_kernel,
    edge_density,
    hadamard,
    kernel_power,
    local_density_deficit,
    regularity,
)
from .contraction import EliminationOrder
from .homdensity import (
    DensityValue,
    deficit,
    density_gradient,
    holder_lower_bound,
    hom_density,
)
from .search import (
    ProjectionError,
    SearchResult,
    certify_violation,
    project_regular,
    search_counterexample,
)
from .verify import (
    SUITES,
    SuiteReport,
    verify_counting_identity,
    verify_flower_knrs,
    verify_holder,
    verify_local_density,
    verify_sidorenko_families,
)
