"""cctu: congruency-constrained feasibility and optimization over totally
unimodular systems, with exact integer arithmetic throughout.

Solve systems T x <= b, gamma.x in R (mod m) over certified TU matrices:
structurally (flatness, proximity, dimension reduction, sum decomposition,
base-block reductions) with a proximity-box brute-force oracle for
cross-checking everything at desk scale.
"""

from .baseblocks import (
    CccInstance,
    CtcInstance,
    cctu_to_ccc,
    cctu_to_ctc,
    normalize,
    solve_base_block,
    solve_ccc,
    solve_const_core,
    solve_ctc_chain,
)
from .cones import ElementaryDecomposition, decompose_pointed_tu_cone, decompose_solutions
from .fileio import parse_instance, serialize_instance
from .generators import generate
from .matrices import IntMatrix, TUMatrix, is_totally_unimodular
from .patterns import (
    Pattern,
    SubPattern,
    compute_pattern,
    decomp_progress_step,
    find_linear_subpattern,
    integrate_subpattern,
    narrowed_domain,
    solve_rcctuf,
    split_instance,
)
from .polyhedra import (
    Polyhedron,
    RCctufInstance,
    SolveResult,
    integral_feasible_point,
    lp_optimize,
    lp_range,
    oracle_solve,
    width,
)
from .seymour import (
    Classification,
    NetworkRepresentation,
    SumDecomposition,
    classify,
    k_sum,
    pivot,
    pivot_transform_instance,
    recognize_network_matrix,
    reduce_to_core,
)
from .shortening import ResidueGroups, max_removable_interval, shorten_residue_sum, transform_solution
from .structure import (
    FlatnessOutcome,
    bound_scalar_products,
    eliminate_tight_variable,
    find_flat_or_solve,
    proximal_solution,
    solve_r_minus_1,
)
from .verify import verify_solution

__version__ = "0.1.0"
