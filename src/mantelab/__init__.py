"""Desk-scale laboratory for triangle-free subhypergraphs of random 4-uniform hypergraphs.

Generate binomial random k-uniform hypergraphs, detect and count generalized
triangles, solve maximum triangle-free subhypergraph and maximum 4-partite
cut exactly at small scale, and compute the exact degree statistics,
low-pair sets, and defect decompositions used to diagnose when every maximum
triangle-free subhypergraph is 4-partite.
"""

from .hypergraph import (
    EdgeSet,
    Hypergraph,
    VertexPartition,
    build_hypergraph,
    common_degree,
    complete_hypergraph,
    crossing_edges,
    edge_subset,
    empty_hypergraph,
    from_text,
    link,
    partition_from_classes,
    read_text,
    shadow_graph,
    to_text,
    turan_hypergraph,
    write_text,
)
from .motifs import (
    count_T,
    find_T,
    generalized_triangle,
    t_copy_triples,
)
from .proplab import (
    AuditConstants,
    AuditReport,
    ConcentrationReport,
    DecompositionReport,
    GapReport,
    LowPairReport,
    chernoff_c,
    concentration_report,
    decomposition,
    defect_audit,
    low_pair_cut_gap,
    low_pairs,
)
from .randgen import (
    TrialSeed,
    colex_rank,
    colex_unrank,
    derive_seed,
    random_partition,
    sample_gknp,
    sample_gknp_bernoulli,
)
from .solvers import (
    Budget,
    SearchStats,
    SolveResult,
    best_partition_for,
    is_4partite,
    max_cut4_exact,
    max_cut4_local,
    max_tfree_exact,
    max_tfree_repair,
)

__version__ = "0.1.0"
