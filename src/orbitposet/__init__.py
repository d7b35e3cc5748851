"""Combinatorics of conjugation orbits of square-zero upper-triangular matrices.

The orbits are indexed by involutions of the symmetric group; this package
implements the involution side completely: the orbit dimension formula, the
rank-matrix closure order with meets and recovery, the four families of
minimal degeneration moves with the descendant/ancestor/cover sets they
generate, closure-intersection decomposition, the two-column Young tableau
correspondence for maximal orbits, the row-insertion witness criterion for
codimension one, and an exhaustive small-rank verification oracle.
"""

from .errors import (
    BadRank,
    BadWindow,
    DuplicateEntry,
    IndexOutOfRange,
    InvalidRankMatrix,
    InvalidTableau,
    NotAPermutation,
    NotCanonical,
    NotComparable,
    NotInColumn,
    OrbitPosetError,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    SizeMismatch,
    TooLarge,
    UnknownSuite,
)
from .involutions import (
    Involution,
    all_involutions,
    canonicalize,
    delete_pair,
    dimension,
    enumerate_involutions,
    project,
    q_values,
    sigma_o,
)
from .moves import (
    MoveOutcome,
    ancestor_moves,
    ancestors,
    cover,
    cover_moves,
    cross_down,
    cross_up,
    descendant_moves,
    descendants,
    move_down,
    move_left,
    move_right,
    move_up,
    swap_down,
    swap_up,
)
from .oracle import (
    Failure,
    VerificationReport,
    brute_covers,
    hook_length_count,
    involution_number,
    involution_number_k,
    suite_names,
    verify_all,
    verify_suite,
)
from .poset import (
    IntersectionResult,
    PosetEdge,
    closure,
    codim,
    depth,
    hasse,
    hasse_dot,
    intersect,
)
from .rank_matrices import (
    RankMatrix,
    from_rank_matrix,
    is_valid,
    leq,
    meet,
    rank_matrix,
)
from .rs import (
    StandardTableau,
    find_rs_witness,
    rs_pair,
    rs_word,
    standard_from_two_column,
    two_column_from_standard,
)
from .tableaux import (
    ColumnPairArray,
    TwoColumnTableau,
    change,
    change_candidates_high,
    change_candidates_low,
    change_rule_partners,
    codim1_partners,
    enumerate_tableaux,
    sigma_T,
    sigma_pairs_by_b,
    tableau_of,
)

__version__ = "0.1.0"
