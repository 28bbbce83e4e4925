"""Exact eigenvalue-multiplicity toolkit for trees.

Computes multiplicities m(T, lambda) of adjacency eigenvalues of trees with
exact integer arithmetic, classifies trees into the recursive families whose
multiplicity sits one or two below the pendant-vertex count, generates family
members, and runs exhaustive verification sweeps over all small trees and all
path-type (Chebyshev form) eigenvalues, checking every other eigenvalue of
the trees with n + 1 <= M_max as well.
"""

from treemult.poly import (
    InvalidSpecError,
    LambdaSpec,
    NonDivisibleError,
    Polynomial,
    cyclotomic,
    exact_div,
    palindromic_descend,
    squarefree_decompose,
)
from treemult.tree import (
    LimitExceededError,
    MalformedGraph6Error,
    NotATreeError,
    Tree,
    emit_graph6,
    enumerate_trees,
    major_count,
    parse_graph6,
    pendant_count,
)
from treemult.spectrum import char_poly, multiplicity
from treemult.families import (
    BROAD,
    STRICT,
    FamilyResult,
    Gamma2Mode,
    classify,
    generate,
)
from treemult.verify import SweepConfig, sweep

__version__ = "0.1.0"
