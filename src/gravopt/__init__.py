"""Exact convex integer maximization, polynomial on n-fold systems.

Solves max c(w_1.x, .., w_d.x) subject to Ax = b, x >= 0 integer, for
any A, by computing Graver bases, enumerating zonotope vertices of the
projected edge directions, and answering one linear integer program per
vertex.  Everything runs in exact integer (or rational) arithmetic.
"""

from .apps import (MultiwayInstance, PackingInstance, PartitionInstance,
                   build_multiway, build_packing, build_partition,
                   build_threeway, cluster_variance)
from .bruteforce import EnumBudget, brute_convex_max, enumerate_feasible
from .config import DEFAULT_CONFIG, RunConfig
from .convexopt import (CallbackObjective, ConvexObjective, ConvexOutcome,
                        LinearObjective, MaxLinearObjective, ObjectiveWeights,
                        SquaredNormObjective, convex_maximize,
                        solve_convex, solve_convex_nfold)
from .errors import (DimensionMismatchError, GravoptError,
                     InfeasibleInstanceError, InternalInconsistencyError,
                     ResourceLimitError, UsageError)
from .graver import GraverBasis, conformal_leq, graver_basis
from .intlinalg import (IntMat, dot, format_matrix, lattice_kernel_basis,
                        mat_vec, parse_matrix, rank, solve_integer)
from .ipsolve import (SolveOutcome, augment_to_optimum, find_feasible,
                      solve_ip, solve_nfold_ip)
from .nfold import (NFoldRhs, NFoldStencil, graver_complexity, nfold_graver,
                    nfold_matrix, nproduct)
from .zonotope import ZonotopeVertex, zonotope_vertices

__version__ = "0.1.0"

__all__ = [
    "CallbackObjective", "ConvexObjective", "ConvexOutcome",
    "DEFAULT_CONFIG", "DimensionMismatchError", "EnumBudget", "GraverBasis",
    "GravoptError", "InfeasibleInstanceError", "IntMat",
    "InternalInconsistencyError", "LinearObjective", "MaxLinearObjective",
    "MultiwayInstance", "NFoldRhs", "NFoldStencil",
    "ObjectiveWeights", "PackingInstance", "PartitionInstance",
    "ResourceLimitError", "RunConfig", "SolveOutcome",
    "SquaredNormObjective", "UsageError", "ZonotopeVertex",
    "augment_to_optimum", "brute_convex_max",
    "build_multiway", "build_packing", "build_partition", "build_threeway",
    "cluster_variance", "conformal_leq",
    "convex_maximize", "dot", "enumerate_feasible", "find_feasible",
    "format_matrix", "graver_basis", "graver_complexity",
    "lattice_kernel_basis", "mat_vec", "nfold_graver", "nfold_matrix",
    "nproduct", "parse_matrix", "rank", "solve_convex", "solve_convex_nfold",
    "solve_integer", "solve_ip", "solve_nfold_ip", "zonotope_vertices",
]
