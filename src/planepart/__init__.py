"""Resolving partitions of projective plane incidence graphs."""

from .analysis import (
    EstimateReport,
    LowerBoundResult,
    SearchResult,
    estimate_unseparated,
    exhaustive_pd,
    lower_bound,
    randomized_upper_bound,
)
from .construct import (
    ConflictGraph,
    ConstructionError,
    ConstructionResult,
    Frame,
    H2Spec,
    SelectionError,
    ZetaSet,
    build_conflict_graph,
    build_h2,
    choose_frame,
    construct_partition,
    default_searching_count,
    default_zeta_count,
    expected_unseparated_bound,
    min_free_lines,
    result_to_doc,
    sample_zeta_sets,
    searching_family,
    select_class_lines,
    separation_probability_bound,
)
from .galois import Field, build_field, is_prime
from .metric import (
    LINE,
    POINT,
    Partition,
    Verdict,
    VertexId,
    VertexSet,
    bfs_distance,
    distance_to_set,
    is_resolving,
    partition_from_doc,
    partition_to_doc,
    representation,
    unseparated_pairs,
)
from .plane import (
    IncidencePlane,
    ValidationReport,
    Violation,
    build_pg2,
    build_plane,
    canonicalize,
    load_plane,
    plane_to_doc,
    validate_axioms,
)

__version__ = "0.1.0"
