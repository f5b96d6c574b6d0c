"""Fractal percolation with a boundary-death rewriting map.

Samples Galton-Watson subdivision trees of the unit cube, rewrites
surviving addresses by inserting a fixed interior word whenever a node
loses all boundary children, and provides the closed-form growth
exponents, the pointwise and global limit maps, and Monte Carlo
cross-checks for all of it.
"""

from .errors import CapacityError, DomainError, PreconditionError
from .lattice import (
    Params,
    corner_floats,
    default_eta,
    is_boundary_label,
    label_to_offset,
    offset_to_label,
    validate_label,
    validate_word,
)
from .percolation import (
    PercTree,
    derive_seed,
    node_survives,
    sample_nonextinct,
    sample_tree,
    subtree,
    survival_threshold,
    tree_from_json_dict,
    tree_from_words,
    truncate,
)
from .substitution import (
    FlaggedTree,
    compute_flags,
    level_table,
    pair_ratios,
)
from .globalmap import GeomConfig, f_global, g, g_batch
from .analysis import (
    DimFit,
    DimReport,
    EpsilonReport,
    MartingaleReport,
    PartitionSum,
    QsScan,
    epsilon_table,
    estimate_dims,
    kappa,
    kappa_prime,
    level1_oracle,
    martingale_check,
    partition_sum,
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
    "PartitionSum",
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
    "g",
    "g_batch",
    "is_boundary_label",
    "kappa",
    "kappa_prime",
    "label_to_offset",
    "level1_oracle",
    "level_table",
    "martingale_check",
    "node_survives",
    "offset_to_label",
    "pair_ratios",
    "partition_sum",
    "qs_ratio_scan",
    "sample_nonextinct",
    "sample_tree",
    "solve_epsilon",
    "solve_t",
    "subtree",
    "survival_threshold",
    "tree_from_json_dict",
    "tree_from_words",
    "truncate",
    "validate_label",
    "validate_word",
    "zero_slope",
]
