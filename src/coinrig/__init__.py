"""Rigidity of bar-joint frameworks with coincident vertices.

Exact linear-algebraic rank computation and combinatorial strong-sparsity
certificates for planar frameworks in which a prescribed set of vertices is
pinned to one point, with cross-validation harnesses between the two
characterizations.  Strong-sparsity verdicts play pebble games on graphs
of any size.  Every enumeration (the walk over vertex sets that names a
violation's witness, the cover searches, the subsets of T) refuses more
than 12 vertices (``sparsity.DEFAULT_CAP``).
"""

from .graph import (Graph, GraphParseError, complete_bipartite, complete_graph,
                    graph_to_json, parse_graph_with_T)
from .linalg import (RankReport, Realization, RigidityMatrix, generic_rank,
                     rank_exact, rigidity_matrix, rigidity_target,
                     sample_T_coincident)
from .pebble import InvariantError, PebbleGame, pebble_rank_23
from .sparsity import (AugmentedFamily, CompatibleFamily,
                       SparsityViolation, coverage, is_S_sparse,
                       is_strongly_T_sparse, val_augmented, val_family,
                       val_set)
from .matroid import (IndependenceOracle, MatroidRankCertificate, circuits_upto,
                      greedy_rank, laman_oracle, mt_oracle, mt_rank_cover_min,
                      rt_oracle)
from .constructions import (SplitSpec, henneberg_random, one_extension,
                            reduce_low_degree, replace_rigid_subgraph,
                            vertex_split, zero_extension)
from .checks import (CoincidenceVerdict, Fixture, check_coincident_rigidity,
                     coincident_rigid_combinatorial, conjecture_search,
                     cross_validate, fixtures, random_instance)

__version__ = "0.1.0"
