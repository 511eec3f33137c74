"""Finite projective planes, polarity graphs, and exact four-cycle counting.

The package builds PG(2, q) over explicit finite fields, constructs polarity
graphs and their perturbations, counts four-cycles exactly at scale, and
mechanically checks the extremal bounds and counting identities that govern
C4-free graphs near the Turan threshold.
"""

from .acceptance import CriterionResult, run_all, run_criterion
from .extremal import (
    FurediValue,
    TuranRecord,
    furedi_value,
    h_bruteforce,
    prime_in_interval,
    reiman_bound,
    turan_bruteforce,
    turan_lower_bound,
)
from .field import (
    FieldSpec,
    find_irreducible,
    is_irreducible,
    spec_for_order,
)
from .graph import (
    Graph,
    GraphStats,
    NeighborhoodFamily,
    c4_through_edge,
    claim_c4_inequality,
    codegree,
    convexity_bound,
    count_c4,
    count_c4_bruteforce,
    from_edges,
    graph_stats,
    neighborhood_family,
    read_edge_list,
    write_edge_list,
)
from .plane import (
    IncidenceStructure,
    PlaneVerdict,
    ProjectivePlane,
    bruck_ryser_excluded,
    build_pg2,
    extend_one_intersecting,
    is_one_intersecting,
    read_incidence,
    verify_projective_plane,
    write_incidence,
)
from .polarity import (
    Polarity,
    PolarityGraph,
    PolarityVerdict,
    degree_q_independence,
    orthogonal_polarity,
    polarity_graph,
    read_polarity,
    special_vertex_w,
    verify_polarity,
    write_polarity,
)
from .primes import is_prime
from .supersat import (
    ExperimentReport,
    add_edge_experiment,
    classify_perturbation,
    er_graph,
    halfway_bound_check,
    matching_experiment,
    random_supersat,
    upper_count_audit,
)

__version__ = "0.1.0"

__all__ = [
    "CriterionResult",
    "ExperimentReport",
    "FieldSpec",
    "FurediValue",
    "Graph",
    "GraphStats",
    "IncidenceStructure",
    "NeighborhoodFamily",
    "PlaneVerdict",
    "Polarity",
    "PolarityGraph",
    "PolarityVerdict",
    "ProjectivePlane",
    "TuranRecord",
    "add_edge_experiment",
    "bruck_ryser_excluded",
    "build_pg2",
    "c4_through_edge",
    "claim_c4_inequality",
    "classify_perturbation",
    "codegree",
    "convexity_bound",
    "count_c4",
    "count_c4_bruteforce",
    "degree_q_independence",
    "er_graph",
    "extend_one_intersecting",
    "find_irreducible",
    "from_edges",
    "furedi_value",
    "graph_stats",
    "h_bruteforce",
    "halfway_bound_check",
    "is_irreducible",
    "is_one_intersecting",
    "is_prime",
    "matching_experiment",
    "neighborhood_family",
    "orthogonal_polarity",
    "polarity_graph",
    "prime_in_interval",
    "random_supersat",
    "read_edge_list",
    "read_incidence",
    "read_polarity",
    "reiman_bound",
    "run_all",
    "run_criterion",
    "spec_for_order",
    "special_vertex_w",
    "turan_bruteforce",
    "turan_lower_bound",
    "upper_count_audit",
    "verify_polarity",
    "verify_projective_plane",
    "write_edge_list",
    "write_incidence",
    "write_polarity",
]
