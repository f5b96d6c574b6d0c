"""Base-M lattice geometry on the unit cube, with exact arithmetic.

The unit cube [0,1]^d is subdivided into M^d closed congruent subcubes.
Each subcube is addressed by a label in {1, ..., M^d}; labels are ordered
so that the cells touching the boundary of the cube come first, and one
cached offset table per grid holds the label <-> offset map.  Words over
the label alphabet address nested subcubes, and every finite word maps
to the lower-left corner of its subcube.  All corner arithmetic is
exact: a coordinate is an integer numerator over a power of M.  The
model parameters live here too, with _json_ready, the one encoder that
writes them, and every report, as JSON values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

Word = tuple[int, ...]


@lru_cache(maxsize=None)
def label_offsets(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The label <-> offset map of a grid, as two read-only arrays.

    offsets is (M^d, d): row label-1 is the cell's offset in {0..M-1}^d.
    Boundary offsets (some coordinate in {0, M-1}) come first in
    lexicographic order, then interior offsets in lexicographic order.
    labels is (M^d,): the label of the offset whose lexicographic rank,
    np.ravel_multi_index(offset, (M,) * d), is its index.
    """
    grid = np.indices((m,) * d).reshape(d, -1).T
    interior = ((grid > 0) & (grid < m - 1)).all(axis=1)
    order = np.argsort(interior, kind="stable")
    labels = np.empty(m**d, dtype=np.int64)
    labels[order] = np.arange(1, m**d + 1)
    offsets = grid[order]
    offsets.flags.writeable = labels.flags.writeable = False
    return offsets, labels


def boundary_label_count(m: int, d: int) -> int:
    """Number of cells touching the cube boundary: M^d - (M-2)^d."""
    return m**d - (m - 2) ** d


def default_eta(m: int, d: int, k: int = 1) -> Word:
    """Default insertion word: the central interior cell, repeated K times.

    The centre (M//2, ..., M//2) is interior; its label is the boundary
    count plus one plus its lexicographic rank among the (M-2)^d
    interior offsets, whose coordinates run over 1..M-2.
    """
    rank = (m // 2 - 1) * sum((m - 2) ** i for i in range(d))
    return (boundary_label_count(m, d) + 1 + rank,) * k


@dataclass(frozen=True)
class Params:
    """Model parameters.

    d, M      grid dimension and subdivision base (M >= 3 so interior
              cells exist)
    p         per-cell survival probability, 0 < p < 1
    K, eta    insertion word of length K whose first label is interior
    """

    m: int
    d: int
    p: float
    k: int = 1
    eta: Word | None = None

    def __post_init__(self) -> None:
        if self.m < 3:
            raise DomainError(f"M must be >= 3, got {self.m}")
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie strictly in (0, 1), got {self.p}")
        if self.k < 1:
            raise DomainError(f"K must be >= 1, got {self.k}")
        if self.eta is None:
            object.__setattr__(self, "eta", default_eta(self.m, self.d, self.k))
        else:
            object.__setattr__(self, "eta", tuple(self.eta))
        eta = self.eta
        if len(eta) != self.k:
            raise DomainError(f"eta must have length K={self.k}, got {len(eta)}")
        for lab in eta:
            validate_label(self, lab)
        if is_boundary_label(self, eta[0]):
            raise DomainError(
                f"eta[0]={eta[0]} addresses a boundary cell; the insertion "
                "target must start strictly inside the cube"
            )

    @property
    def alphabet_size(self) -> int:
        return self.m**self.d

    @property
    def n_boundary(self) -> int:
        return boundary_label_count(self.m, self.d)


# Field names that files and reports spell as the CLI flags do.
_JSON_NAMES = {"m": "M", "k": "K"}


def _json_ready(obj):
    """obj as plain JSON values: a dataclass becomes a dict of its fields
    in field order, m and k spelled M and K; tuples become lists; and
    every non-finite float (NaN, infinities) becomes None (JSON null).
    Params, tree headers and reports all go through it."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if is_dataclass(obj):
        obj = {_JSON_NAMES.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def validate_label(params: Params, label: int) -> None:
    if not (1 <= label <= params.alphabet_size):
        raise DomainError(
            f"label {label} outside 1..{params.alphabet_size} for "
            f"M={params.m}, d={params.d}"
        )


def validate_word(params: Params, word: Word) -> None:
    for lab in word:
        validate_label(params, lab)


def corner_nums(params: Params, word: Word) -> tuple[int, ...]:
    """Integer corner numerators, over M^len(word), of the cell a word
    addresses: coordinate k folds offset(word[n])[k] in base M."""
    validate_word(params, word)
    offsets = label_offsets(params.m, params.d)[0]
    nums = [0] * params.d
    for off in offsets[np.asarray(word, dtype=np.int64) - 1].tolist():
        nums = [n * params.m + o for n, o in zip(nums, off)]
    return tuple(nums)


def is_boundary_label(params: Params, label: int) -> bool:
    """True iff the cell touches the boundary of the unit cube.

    Equivalent to label <= M^d - (M-2)^d under the label ordering.
    """
    validate_label(params, label)
    return label <= params.n_boundary


def corner_floats(m: int, nums: np.ndarray, levels) -> np.ndarray:
    """Float coordinates of integer corner numerators: row i of nums over
    m^levels[i] (one level for all rows, or one per row), each
    coordinate correctly rounded, as Fraction -> float is.

    Numerators and denominators up to 2^53 are exact doubles, so one
    float division rounds correctly; past that, int / int does.
    """
    levels = np.broadcast_to(np.asarray(levels, dtype=np.int64), (nums.shape[0],))
    if nums.shape[0] == 0 or m ** int(levels.max()) <= 2**53:
        den = (np.int64(m) ** levels).astype(np.float64)
        return nums.astype(np.float64) / den[:, None]
    return np.array(
        [[n / m ** int(l) for n in row] for row, l in zip(nums.tolist(), levels)],
        dtype=np.float64,
    )
