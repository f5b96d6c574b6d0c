"""One-word exact geometry: the independent oracle of the level tables.

The package computes corners, rewritten corners and pair distortions a
whole level at a time (substitution.level_table and pair_ratios), the
global map a whole point array at a time (globalmap.f_global), and the
image panels of render from level_table rows.  The functions here take
one word, one point or one box at a time: they walk its prefixes with
child_index, one sorted lookup per letter and never the package's
prefix_nodes, build the rewritten word letter by letter, keep points as
canonical ExactPoints and boxes as a set, and measure distances in
Fractions, so the tests can compare the two paths.  subtree and truncate
cut a tree down for the self-similarity and truncation contracts.
render_svg_reference writes every SVG rect with its own f-string, the
reference for the package's vectorised '%.4f' writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from percoqs import substitution
from percoqs.cli import _SVG_FILL, _SVG_IMAGE_FILL, _check_injective
from percoqs.errors import DomainError, PreconditionError
from percoqs.globalmap import GeomConfig, g_batch
from percoqs.lattice import (
    Params,
    Word,
    corner_floats,
    label_offsets,
    validate_word,
)
from percoqs.percolation import PercTree, tree_from_words
from percoqs.substitution import FlaggedTree, level_table


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
    offsets = label_offsets(params.m, params.d)[0]
    nums = [0] * params.d
    for lab in word:
        off = offsets[lab - 1].tolist()
        for k in range(params.d):
            nums[k] = nums[k] * params.m + off[k]
    return ExactPoint(params.m, len(word), tuple(nums))


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


def words(tree, level: int) -> list[Word]:
    """All surviving words of a level, in node order."""
    return [tuple(w) for w in tree.label_matrix(level).tolist()]


def _child_range(tree, level: int, index: int) -> tuple[int, int]:
    """Slice [lo, hi) of level+1 holding the children of a node."""
    if level >= tree.depth:
        raise DomainError(f"level {level} has no child level (depth {tree.depth})")
    par = tree.parents[level + 1]
    # a Python int key sends searchsorted on int32 down a path about
    # six times slower than a key of the array's own type
    key = np.int32(index)
    return int(par.searchsorted(key, "left")), int(par.searchsorted(key, "right"))


def child_labels(tree, level: int, index: int) -> tuple[int, ...]:
    """Surviving child labels of a node, ascending."""
    lo, hi = _child_range(tree, level, index)
    return tuple(int(l) for l in tree.labels[level + 1][lo:hi])


def child_index(tree, level: int, index: int, label: int) -> int | None:
    """Index of child 'label' of a node in level+1, or None if dead."""
    lo, hi = _child_range(tree, level, index)
    lab = tree.labels[level + 1]
    pos = lo + int(np.searchsorted(lab[lo:hi], label))
    if pos < hi and int(lab[pos]) == label:
        return pos
    return None


def find(tree, word: Word) -> int | None:
    """Index of a word in its level, or None if it died."""
    if len(word) > tree.depth:
        raise DomainError(f"word longer than sampled depth {tree.depth}")
    idx = 0
    for level, lab in enumerate(word):
        nxt = child_index(tree, level, idx, lab)
        if nxt is None:
            return None
        idx = nxt
    return idx


def subtree(tree, word: Word) -> PercTree:
    """The subtree rooted at a surviving word, re-rooted as its own tree.

    Descendants of a node are contiguous per level (lexicographic
    order), so each level's suffix words are the previous level's,
    extended by one label over a sorted range.  The seed is carried over
    for provenance only; the subtree is not a fresh sample of it.
    """
    word = tuple(word)
    validate_word(tree.params, word)
    idx = find(tree, word)
    if idx is None:
        raise DomainError(f"word {word} is not a survivor of this tree")
    lo, hi = idx, idx + 1
    rows = np.zeros((1, 0), dtype=np.int64)
    levels = [rows]
    for k in range(len(word) + 1, tree.depth + 1):
        par = tree.parents[k]
        new_lo, new_hi = np.searchsorted(par, [lo, hi]).tolist()
        rows = np.column_stack(
            [rows[par[new_lo:new_hi] - lo], tree.labels[k][new_lo:new_hi]]
        )
        levels.append(rows)
        lo, hi = new_lo, new_hi
    return tree_from_words(tree.params, len(levels) - 1, levels, seed=tree.seed)


def truncate(tree, depth: int) -> PercTree:
    """Restrict a sampled tree to a smaller depth (levels are shared)."""
    if not (0 <= depth <= tree.depth):
        raise DomainError(f"depth {depth} outside 0..{tree.depth}")
    return PercTree(
        tree.params, tree.seed, depth, tree.masks[:depth], tree.counts[: depth + 1]
    )


def word_meet(i: Word, j: Word) -> Word:
    """Longest common prefix of two words."""
    n = 0
    for a, b in zip(i, j):
        if a != b:
            break
        n += 1
    return tuple(i[:n])


def box_of_word(params: Params, word: Word) -> Box:
    """The subcube addressed by a word."""
    return Box(pi_finite(params, word), len(word))


def image_cover(ftree: FlaggedTree, level: int) -> set[Box]:
    """Image boxes of all survivors of a level.

    Each box sits at level |w| + K * (number of insertions).  Distinct
    survivors always yield distinct boxes; a collision would break the
    substitution's injectivity and raises.
    """
    _, img = level_table(ftree, level)
    m = ftree.params.m
    boxes = {
        Box(ExactPoint(m, t, tuple(c)), t)
        for c, t in zip(img.tolist(), ftree.tilde_lengths[level].tolist())
    }
    if len(boxes) != img.shape[0]:
        raise RuntimeError(
            "image boxes collided; the substitution lost injectivity"
        )
    return boxes


def dist_max(x: ExactPoint, y: ExactPoint) -> Fraction:
    """Chebyshev (max-coordinate) distance, exact."""
    if x.m != y.m or x.dim != y.dim:
        raise DomainError("points live on different lattices")
    level = max(x.level, y.level)
    xs = x.nums_at_level(level)
    ys = y.nums_at_level(level)
    return Fraction(max(abs(a - b) for a, b in zip(xs, ys)), x.m**level)


@dataclass(frozen=True)
class TildeWord:
    """A rewritten word plus the 1-based source positions that triggered
    an insertion."""

    labels: Word
    insertions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.labels)


def _walk_prefix_nodes(ftree: FlaggedTree, word: Word) -> list[int]:
    """Node indices of word prefixes of lengths 0..len(word)-1.

    Raises when a proper prefix died or the word overruns the depth at
    which flags are defined.
    """
    if len(word) > ftree.depth:
        raise PreconditionError(
            f"word of length {len(word)} overruns sampled depth {ftree.depth}; "
            "flags past the deepest level are unknown"
        )
    nodes = [0]
    for n in range(len(word) - 1):
        nxt = child_index(ftree.tree, n, nodes[-1], word[n])
        if nxt is None:
            raise PreconditionError(
                f"prefix {word[: n + 1]} did not survive; substitution undefined"
            )
        nodes.append(nxt)
    return nodes


def tilde(ftree: FlaggedTree, word: Word) -> TildeWord:
    """Rewrite a word, inserting eta before each letter whose parent
    prefix is flagged.

    Defined whenever every proper prefix survived (the final letter may
    be any label).  The empty word rewrites to itself.
    """
    word = tuple(word)
    validate_word(ftree.params, word)
    nodes = _walk_prefix_nodes(ftree, word)
    eta = ftree.params.eta
    out: list[int] = []
    insertions: list[int] = []
    for n, lab in enumerate(word):
        if ftree.flags[n][nodes[n]]:
            out.extend(eta)
            insertions.append(n + 1)
        out.append(lab)
    return TildeWord(tuple(out), tuple(insertions))


def f_point(ftree: FlaggedTree, word: Word) -> ExactPoint:
    """Image of a surviving word's corner: the corner of its rewritten
    word."""
    word = tuple(word)
    tw = tilde(ftree, word)
    if word and find(ftree.tree, word) is None:
        raise PreconditionError(f"word {word} did not survive; corner has no image")
    return pi_finite(ftree.params, tw.labels)


def comparability_ratio(ftree: FlaggedTree, i: Word, j: Word) -> Fraction:
    """Distortion of the corner map between two surviving words of equal
    length, rescaled by the meet's rewriting:

        dist(f(i), f(j)) * M^(|tilde(meet)| - |meet|) / dist(corner(i), corner(j))

    Exact rational arithmetic throughout.
    """
    i, j = tuple(i), tuple(j)
    if len(i) != len(j):
        raise DomainError("words must have equal length")
    if i == j:
        raise DomainError("words must differ")
    fi = f_point(ftree, i)
    fj = f_point(ftree, j)
    den = dist_max(pi_finite(ftree.params, i), pi_finite(ftree.params, j))
    if den == 0:
        raise DomainError("coincident corners")
    meet = word_meet(i, j)
    tmeet = tilde(ftree, meet)
    scale = Fraction(ftree.params.m) ** (len(tmeet) - len(meet))
    return dist_max(fi, fj) * scale / den


def madic_address(
    params: Params, point, digits: int
) -> tuple[Word, tuple[Fraction, ...]]:
    """Base-M address of a point to a fixed number of digits, plus the
    exact residual inside the last cell.

    Points on a grid face belong to two cells; the tie resolves toward
    the smaller offset, which leaves a residual coordinate of exactly 1.
    Accepts floats (converted exactly) or Fractions.
    """
    if digits < 0:
        raise DomainError(f"digits must be >= 0, got {digits}")
    v = [Fraction(c) for c in point]
    if any(c < 0 or c > 1 for c in v):
        raise DomainError("point outside [0,1]^d")
    word = []
    m = params.m
    label_of = label_offsets(m, params.d)[1]
    for _ in range(digits):
        offs = []
        for k in range(params.d):
            scaled = v[k] * m
            dig = max(0, ceil(scaled) - 1)
            offs.append(dig)
            v[k] = scaled - dig
        word.append(int(label_of[np.ravel_multi_index(offs, (m,) * params.d)]))
    return tuple(word), tuple(v)


def f_global(ftree: FlaggedTree, u, resolution: int) -> np.ndarray:
    """The global map at one point (shape (d,)), in Fractions.

    Follows the point's address while it survives; the rewritten
    prefix's cell takes the remainder, rescaled, or through g when every
    boundary child of the last surviving prefix died.
    """
    if not (1 <= resolution <= ftree.depth):
        raise PreconditionError(
            f"resolution {resolution} outside 1..depth={ftree.depth}"
        )
    params = ftree.params
    uu = np.asarray(u, dtype=np.float64)
    if uu.shape != (params.d,):
        raise DomainError(f"expected shape ({params.d},), got {uu.shape}")
    if np.any(uu < -1e-12) or np.any(uu > 1.0 + 1e-12):
        raise DomainError("point outside [0,1]^d beyond tolerance")
    uu = np.clip(uu, 0.0, 1.0)
    if np.any((uu == 0.0) | (uu == 1.0)):
        return uu.copy()  # boundary fixed exactly, by branch

    word, residual = madic_address(params, uu, resolution)
    # longest surviving prefix of the address, capped at the resolution
    n = 0
    idx = 0
    for lab in word:
        nxt = child_index(ftree.tree, n, idx, lab)
        if nxt is None:
            break
        n += 1
        idx = nxt

    tw = tilde(ftree, word[:n])
    base = pi_finite(params, tw.labels).as_fractions()
    scale = Fraction(1, params.m ** len(tw))
    tail = word[n:]
    tail_corner = pi_finite(params, tail).as_fractions()
    tail_scale = Fraction(1, params.m ** len(tail))
    z = tuple(c + tail_scale * r for c, r in zip(tail_corner, residual))

    if n < resolution:
        nb = params.n_boundary
        alive = child_labels(ftree.tree, n, idx)
        boundary_child_alive = any(lab <= nb for lab in alive)
    else:
        boundary_child_alive = True  # full survival: pure rescale branch

    if boundary_child_alive:
        return np.array(
            [float(b + scale * zk) for b, zk in zip(base, z)], dtype=np.float64
        )
    cfg = GeomConfig(params)
    gz = g_batch(cfg, np.array([[float(zk) for zk in z]], dtype=np.float64))[0]
    basef = np.array([float(b) for b in base], dtype=np.float64)
    return basef + float(scale) * gz


def render_svg_reference(tree, levels, image=False, px=220, gap=14) -> str:
    """One square panel per requested level; survivors (or their image
    boxes) drawn as filled squares.  2-d trees only.

    Both panel kinds read level_table: a survivor's cell has corner src
    over M^level, its image cell corner img over M^(rewritten length).
    Image boxes are drawn sorted by corner, then side.
    """
    params = tree.params
    m = params.m
    if params.d != 2:
        raise DomainError(f"rendering is 2-d only, got d={params.d}")
    # a depth-0 tree has no flags; its only level, the root, needs none
    ftree = substitution.compute_flags(tree) if tree.depth else None
    parts = []
    width = len(levels) * (px + gap) + gap
    height = px + 2 * gap
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    for i, level in enumerate(levels):
        x0 = gap + i * (px + gap)
        y0 = gap
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{px}" height="{px}" '
            f'fill="none" stroke="#222" stroke-width="1"/>'
        )
        if ftree is None:  # the root's image cell is the unit cube itself
            src = img = np.zeros((1, 2), dtype=np.int64)
            tilde = np.zeros(1, dtype=np.int64)
        else:
            src, img = substitution.level_table(ftree, level)
            tilde = ftree.tilde_lengths[level]
        if image:
            nums, lengths, fill = img, tilde, _SVG_IMAGE_FILL
            _check_injective(lengths, nums)
            # a side 1/M^t is the corner of numerator 1, correctly rounded
            ones = np.ones((nums.shape[0], 1), dtype=np.int64)
            sides = corner_floats(m, ones, lengths)[:, 0]
        else:
            nums, lengths, fill = src, level, _SVG_FILL
            sides = np.full(src.shape[0], m ** (-level))
        rects = np.column_stack([corner_floats(m, nums, lengths), sides])
        if image:
            rects = rects[np.lexsort(rects.T[::-1])]
        for cx, cy, side in rects.tolist():
            # SVG's y axis points down; flip so the origin is bottom-left
            parts.append(
                f'<rect x="{x0 + cx * px:.4f}" y="{y0 + (1.0 - cy - side) * px:.4f}" '
                f'width="{side * px:.4f}" height="{side * px:.4f}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
