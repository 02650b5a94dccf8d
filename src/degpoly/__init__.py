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
    sort_decreasing,
)
from .hypergraph import (
    RGraph,
    brute_force_r_graphical,
    degree_partition_of_ideal,
    degree_sequence,
    enumerate_degree_partitions,
    enumerate_r_ideals,
    havel_hakimi,
    is_r_graphical_partition,
    is_r_ideal,
    muirhead_chain,
    r_subsets,
    realize_r_graph,
)
from .optimize import (
    Certificate,
    brute_force_optimal_partition,
    optimal_threshold_partition,
    optimality_certificate,
)
from .polytope import (
    FacetInequality,
    FhmMembership,
    VolumeEstimate,
    affine_rank,
    are_adjacent,
    count_edges,
    dominating_sum_identity,
    dp3_volume,
    ds3_volume_estimate,
    facet_inequalities,
    facet_rank_adjacent,
    fhm_inequality,
    in_fhm_polytope,
    irredundancy_witness,
    is_degree_sequence,
    koren_oracle,
    monotone_inequality,
)
from .runs import (
    PoolResult,
    average_runs,
    pava_oracle,
    pool,
)
from .threshold import (
    enumerate_threshold_partitions,
    graph_from_weights,
    ideal_from_partition,
    is_threshold_partition,
    proper_threshold_oracle,
)

__version__ = "0.1.0"
