"""Base-M lattice geometry on the unit cube, with exact arithmetic.

The unit cube [0,1]^d is subdivided into M^d closed congruent subcubes.
Each subcube is addressed by a label in {1, ..., M^d}; labels are ordered
so that the cells touching the boundary of the cube come first.  Words
over the label alphabet address nested subcubes, and every finite word
maps to the lower-left corner of its subcube.  All corner arithmetic is
exact: a coordinate is an integer numerator over a power of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DomainError

Word = tuple[int, ...]
Offset = tuple[int, ...]


@lru_cache(maxsize=None)
def _label_tables(m: int, d: int) -> tuple[tuple[Offset, ...], dict[Offset, int]]:
    """Label -> offset table (index label-1) and its inverse for a grid.

    Boundary offsets (some coordinate in {0, M-1}) come first in
    lexicographic order, then interior offsets in lexicographic order.
    """
    boundary = []
    interior = []
    for off in product(range(m), repeat=d):
        if any(c == 0 or c == m - 1 for c in off):
            boundary.append(off)
        else:
            interior.append(off)
    offsets = tuple(boundary + interior)
    return offsets, {off: i + 1 for i, off in enumerate(offsets)}


def boundary_label_count(m: int, d: int) -> int:
    """Number of cells touching the cube boundary: M^d - (M-2)^d."""
    return m**d - (m - 2) ** d


def default_eta(m: int, d: int, k: int = 1) -> Word:
    """Default insertion word: the central interior cell, repeated K times."""
    _, inv = _label_tables(m, d)
    center = inv[(m // 2,) * d]
    return (center,) * k


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


def validate_label(params: Params, label: int) -> None:
    if not (1 <= label <= params.alphabet_size):
        raise DomainError(
            f"label {label} outside 1..{params.alphabet_size} for "
            f"M={params.m}, d={params.d}"
        )


def validate_word(params: Params, word: Word) -> None:
    for lab in word:
        validate_label(params, lab)


def label_to_offset(params: Params, label: int) -> Offset:
    """Grid offset in {0..M-1}^d of a cell label."""
    validate_label(params, label)
    offsets, _ = _label_tables(params.m, params.d)
    return offsets[label - 1]


def offset_to_label(params: Params, offset: Offset) -> int:
    _, inv = _label_tables(params.m, params.d)
    try:
        return inv[tuple(offset)]
    except KeyError:
        raise DomainError(f"offset {offset} outside the M={params.m} grid") from None


def is_boundary_label(params: Params, label: int) -> bool:
    """True iff the cell touches the boundary of the unit cube.

    Equivalent to label <= M^d - (M-2)^d under the label ordering.
    """
    validate_label(params, label)
    return label <= params.n_boundary


@dataclass(frozen=True)
class ExactPoint:
    """A point of [0,1]^d with coordinates numerator / m^level.

    Stored in canonical form: the common level is reduced until some
    numerator is not divisible by m (or level 0), so value-equal points
    compare and hash equal.
    """

    m: int
    level: int
    nums: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise DomainError(f"level must be >= 0, got {self.level}")
        nums = tuple(int(n) for n in self.nums)
        level = self.level
        side = self.m**level
        for n in nums:
            if not (0 <= n <= side):
                raise DomainError(f"numerator {n} outside [0, {self.m}^{level}]")
        while level > 0 and all(n % self.m == 0 for n in nums):
            nums = tuple(n // self.m for n in nums)
            level -= 1
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "level", level)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def nums_at_level(self, level: int) -> tuple[int, ...]:
        """Numerators rescaled to a coarser-grained (larger) level."""
        if level < self.level:
            raise DomainError(f"cannot rescale level {self.level} down to {level}")
        f = self.m ** (level - self.level)
        return tuple(n * f for n in self.nums)

    def as_fractions(self) -> tuple[Fraction, ...]:
        den = self.m**self.level
        return tuple(Fraction(n, den) for n in self.nums)

    def to_floats(self) -> tuple[float, ...]:
        # Fraction -> float rounds correctly even when m^level overflows
        # a double.
        return tuple(float(f) for f in self.as_fractions())

    def to_json_dict(self) -> dict:
        return {"level": self.level, "num": [str(n) for n in self.nums]}

    @classmethod
    def from_json_dict(cls, m: int, obj: dict) -> "ExactPoint":
        return cls(m, int(obj["level"]), tuple(int(s) for s in obj["num"]))

    @classmethod
    def origin(cls, m: int, d: int) -> "ExactPoint":
        return cls(m, 0, (0,) * d)


def pi_finite(params: Params, word: Word) -> ExactPoint:
    """Lower-left corner of the subcube addressed by a finite word.

    Coordinate k is sum over positions n of offset(word[n])[k] * M^-(n+1),
    an exact point at level len(word).
    """
    validate_word(params, word)
    nums = [0] * params.d
    for lab in word:
        off = label_to_offset(params, lab)
        for k in range(params.d):
            nums[k] = nums[k] * params.m + off[k]
    return ExactPoint(params.m, len(word), tuple(nums))


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


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned cube: corner + side M^-level."""

    corner: ExactPoint
    level: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise DomainError(f"box level must be >= 0, got {self.level}")

    @property
    def m(self) -> int:
        return self.corner.m

    def side(self) -> Fraction:
        return Fraction(1, self.m**self.level)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "corner": self.corner.to_json_dict()}
