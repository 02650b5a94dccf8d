"""Exact arithmetic for degree partitions of graphs and hypergraphs.

The vertices of the polytope studied here are the degree partitions of
threshold graphs; the package optimizes linear functionals over them,
decides membership, enumerates faces, and recognizes hypergraph degree
sequences, cross-checking every fast route against a brute-force one.
"""

from .core import (
    IntSequence,
    Partition,
    Rational,
    RationalVector,
    as_rational_vector,
    bounded_partitions,
    check_partition,
    is_partition,
    is_weakly_decreasing,
    majorizes,
    prefix_sums,
    sort_decreasing,
)
from .hypergraph import (
    RGraph,
    UnitTransformation,
    apply_unit_transformation,
    brute_force_r_graphical,
    degree_sequence,
    enumerate_degree_partitions,
    enumerate_r_ideal_partitions,
    enumerate_r_ideals,
    format_hypergraph,
    is_r_graphical_partition,
    is_r_ideal,
    muirhead_chain,
    parse_hypergraph,
    r_subsets,
    realize_r_graph,
    relabel_rgraph,
    reverse_saturate,
)
from .optimize import (
    Certificate,
    PairCosts,
    brute_force_max_weight_ideals,
    brute_force_optimal_partition,
    lift_costs,
    max_weight_ideal,
    objective_value,
    optimal_threshold_partition,
    optimality_certificate,
)
from .polytope import (
    FacetInequality,
    FhmMembership,
    VolumeEstimate,
    affine_rank,
    apply_incidence,
    are_adjacent,
    count_edges,
    dominating_count,
    dominating_sum_identity,
    dp3_volume,
    ds3_volume_estimate,
    face_vertices,
    facet_inequalities,
    fhm_inequality,
    in_fhm_polytope,
    in_koren_polytope,
    irredundancy_witness,
    is_degree_partition,
    is_degree_sequence,
    koren_oracle,
    monotone_inequality,
)
from .runs import (
    PoolResult,
    RunDecomposition,
    ascending_runs,
    average_runs,
    descent_set,
    pava_oracle,
    pool,
)
from .sampling import (
    DEFAULT_SEED,
    make_rng,
    random_pair_costs,
    random_rational,
    random_rational_vector,
)
from .threshold import (
    degree_partition_of_ideal,
    enumerate_order_ideals,
    enumerate_threshold_partitions,
    graph_from_weights,
    ideal_from_partition,
    is_threshold_partition,
    proper_threshold_oracle,
    threshold_degrees,
    tp_join,
    tp_meet,
)

__version__ = "0.1.0"
