"""Fractal percolation with a boundary-death rewriting map.

Samples Galton-Watson subdivision trees of the unit cube, rewrites
surviving addresses by inserting a fixed interior word whenever a node
loses all boundary children, and provides the closed-form growth
exponents, the exact level tables of the rewritten corners, the global
limit map, and Monte Carlo cross-checks for all of it.  Every name here
is reached by a command; the one-word reference paths the tests
check it against live in tests/exact_oracle.py.
"""

from .errors import CapacityError, DomainError, PreconditionError
from .lattice import (
    Params,
    corner_floats,
    default_eta,
    is_boundary_label,
    validate_label,
    validate_word,
)
from .percolation import (
    PercTree,
    derive_seed,
    sample_nonextinct,
    sample_tree,
    survival_threshold,
    tree_from_json_dict,
    tree_from_words,
)
from .substitution import (
    FlaggedTree,
    compute_flags,
    level_table,
    pair_ratios,
)
from .globalmap import GeomConfig, f_global, g_batch
from .analysis import (
    DimFit,
    DimReport,
    EpsilonReport,
    MartingaleReport,
    QsScan,
    epsilon_table,
    estimate_dims,
    kappa,
    kappa_prime,
    level1_oracle,
    martingale_check,
    qs_ratio_scan,
    solve_epsilon,
    solve_t,
    zero_slope,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DimFit",
    "DimReport",
    "DomainError",
    "EpsilonReport",
    "FlaggedTree",
    "GeomConfig",
    "MartingaleReport",
    "Params",
    "PercTree",
    "PreconditionError",
    "QsScan",
    "compute_flags",
    "corner_floats",
    "default_eta",
    "derive_seed",
    "epsilon_table",
    "estimate_dims",
    "f_global",
    "g_batch",
    "is_boundary_label",
    "kappa",
    "kappa_prime",
    "level1_oracle",
    "level_table",
    "martingale_check",
    "pair_ratios",
    "qs_ratio_scan",
    "sample_nonextinct",
    "sample_tree",
    "solve_epsilon",
    "solve_t",
    "survival_threshold",
    "tree_from_json_dict",
    "tree_from_words",
    "validate_label",
    "validate_word",
    "zero_slope",
]
