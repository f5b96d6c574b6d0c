"""Boundary-death substitution on surviving words.

A surviving word of level n is flagged when none of its boundary-cell
children survived to level n+1.  The substitution rewrites a word by
inserting the configured word eta immediately before every letter whose
parent prefix is flagged; rewriting happens in one pass over the source
word and is never re-applied inside inserted blocks.  Mapping rewritten
words through their corner points yields a map of surviving corners that
shrinks flagged branches by an extra factor M^-K.

The exact geometry comes from one sweep down the tree's packed level
masks, each unpacked once: a node's flag is read off its mask row (its
first n_boundary bits all 0), and each level's rewritten lengths and
integer corner numerators of the source and rewritten words extend the
level above by one gather through the parents.  level_table indexes
that sweep, and pair_ratios turns rows of it into exact two-point
distortions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import corner_nums, label_offsets
from .percolation import PercTree


class _Sweep:
    """The levels of a tree swept so far, from the root down.

    flags[k], tilde_lengths[k], positions[k] and tables[k] are read-only
    arrays; row i of tables[k] holds node i's src then img corner
    numerators.  Level k+1 comes from level k through the one
    np.unpackbits of its mask, whose set bits are at the positions
    par M^d + lab of its nodes, lab = label - 1, in ascending order:

        tls' = (tls + 1 + K flag)[par]
        src' = src[par] M + off[lab]
        img' = where(flag, img M^K + eta, img)[par] M + off[lab]

    upto(level) sweeps flags, lengths and positions (positions[0] is
    None: the root has no parent); table(level) extends the tables from
    the positions by one gather per level.  Tables are int64 until the
    first level where M^(longest rewritten length) or M^K reaches 2^63,
    and Python ints in object arrays from that level down.
    """

    def __init__(self, tree: PercTree):
        pr = tree.params
        m, d, kk = pr.m, pr.d, pr.k
        self.tree = tree
        dtype = object if m**kk >= 2**63 else np.int64
        self.flags: list[np.ndarray] = []
        self.tilde_lengths = [_frozen(np.zeros(1, dtype=np.int64))]
        self.tables = [_frozen(np.zeros((1, 2 * d), dtype=dtype))]
        self.positions: list[np.ndarray | None] = [None]
        offs = label_offsets(m, d)[0]
        self._offsets = np.hstack([offs, offs])
        self._steps = np.array([1, 1 + kk])
        # a flagged row's img columns become img M^K + eta
        self._scale = np.array([1] * d + [m**kk] * d, dtype=dtype)
        self._insert = np.array([0] * d + list(corner_nums(pr, pr.eta)), dtype=dtype)

    def upto(self, level: int) -> _Sweep:
        """Sweep flags and lengths down to `level`."""
        tree = self.tree
        tree.count(level)  # range check
        a, nb = tree.params.alphabet_size, tree.params.n_boundary
        for k in range(len(self.tilde_lengths) - 1, level):
            bits = np.unpackbits(
                np.frombuffer(tree.masks[k], dtype=np.uint8), count=tree.counts[k] * a
            ).view(bool)
            # labels 1..n_boundary are the boundary cells
            fl = ~bits.reshape(-1, a)[:, :nb].any(axis=1)
            pos = np.flatnonzero(bits)
            steps = self._steps[fl.view(np.uint8)]
            self.flags.append(_frozen(fl))
            self.tilde_lengths.append(
                _frozen(np.take(self.tilde_lengths[k] + steps, pos // a))
            )
            self.positions.append(_frozen(pos))
        return self

    def table(self, level: int) -> np.ndarray:
        """The tables of `level`, extended from the deepest one built."""
        self.upto(level)
        pr = self.tree.params
        for k in range(len(self.tables) - 1, level):
            par, lab = np.divmod(self.positions[k + 1], pr.alphabet_size)
            tab = self.tables[k]
            longest = int(self.tilde_lengths[k + 1].max(initial=0))
            if tab.dtype != object and pr.m ** max(pr.k, longest) >= 2**63:
                tab = tab.astype(object)
                self._scale = self._scale.astype(object)
                self._insert = self._insert.astype(object)
            flagged = np.flatnonzero(self.flags[k])
            if flagged.size:  # a childless one may wrap in int64; no child reads it
                tab = tab.copy()
                tab[flagged] = tab[flagged] * self._scale + self._insert
            # np.take and in-place arithmetic: fewer level-sized temporaries
            tab = np.take(tab, par, axis=0)
            tab *= pr.m
            tab += np.take(self._offsets, lab, axis=0)
            self.tables.append(_frozen(tab))
        return self.tables[level]


class _Levels(Sequence):
    """A read-only view of one per-level list of a FlaggedTree's sweep:
    entry k is swept on first use, with every level above it."""

    def __init__(self, ftree: FlaggedTree, name: str, length: int):
        self._ftree, self._name, self._length = ftree, name, length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> np.ndarray:
        if not -self._length <= k < self._length:
            raise IndexError(f"level {k} outside 0..{self._length - 1}")
        k %= self._length
        # the flags of level k read the children at level k + 1
        sweep = self._ftree._sweep.upto(k + (self._name == "flags"))
        return getattr(sweep, self._name)[k]


@dataclass(frozen=True, eq=False)
class FlaggedTree:
    """A sampled tree with per-node flags, rewritten-word lengths and
    exact corner tables, from one sweep down its packed masks.

    flags[k][i] is defined for levels k < depth only: the flag reads the
    children at level k+1, and the deepest sampled level has unknown
    children.  tilde_lengths[k][i] is the length of the rewritten word of
    node i at level k: k + K * (flagged proper prefixes).  Both are
    read-only sequences of read-only arrays, and level_table indexes the
    same sweep.  The sweep runs on first use, level by level and only as
    deep as the deepest level asked for; each level's mask is unpacked
    once.
    """

    tree: PercTree

    @property
    def params(self):
        return self.tree.params

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def flags(self) -> Sequence[np.ndarray]:
        return _Levels(self, "flags", self.depth)

    @property
    def tilde_lengths(self) -> Sequence[np.ndarray]:
        return _Levels(self, "tilde_lengths", self.depth + 1)

    @cached_property
    def _sweep(self) -> _Sweep:
        return _Sweep(self.tree)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def compute_flags(tree: PercTree) -> FlaggedTree:
    """Flag every node of level < depth whose boundary children all died.

    A childless node is flagged vacuously; no surviving word passes
    through it, so the flag is never consumed by the substitution.  The
    flags, like the tables, are swept on first use.
    """
    if tree.depth < 1:
        raise PreconditionError("flags need at least one sampled child level")
    return FlaggedTree(tree)


def level_table(
    ftree: FlaggedTree, level: int, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact corners of a level's words and of their rewritten words.

    For every node of the level (or the given node indices) returns
    (src, img), two fresh (n, d) arrays of integer corner numerators: src
    over M^level, img over M^(rewritten length), the length being
    ftree.tilde_lengths[level][node].  Rows are read from the tree's one
    sweep, so they take their level's dtype: int64 down to the first
    level where M^(longest rewritten length) or M^K reaches 2^63, Python
    ints in object arrays from there on.
    """
    tab = ftree._sweep.table(level)
    if nodes is not None:
        tab = tab[np.asarray(nodes, dtype=np.int64)]
    d = ftree.params.d
    return tab[:, :d].copy(), tab[:, d:].copy()


def _pair_ratio_terms(
    ftree: FlaggedTree, level: int, pairs
) -> tuple[list[int], list[int]]:
    """pair_ratios' exact ratios as Python-int numerators and
    denominators (N, D), not reduced.  The per-pair maxima are taken in
    level_table's dtype: int64 rows stay below M^(longest rewritten
    length) < 2^63 after scaling, and object rows hold Python ints."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise DomainError("a pair must join two distinct nodes")
    m, a = ftree.params.m, ftree.params.alphabet_size
    flat = pairs.ravel()
    # chain[k]: the nodes' prefixes at level k, each the one at level k+1's
    # mask position // M^d
    positions = ftree._sweep.upto(level).positions
    chain = {level: flat}
    for k in range(level, 1, -1):
        chain[k - 1] = positions[k][chain[k]] // a
    # prefixes agree up to the meet and differ past it
    meet = np.zeros(pairs.shape[0], dtype=np.int64)
    meet_len = np.zeros(pairs.shape[0], dtype=np.int64)
    for k in range(1, level):
        xs = chain[k][0::2]
        agree = xs == chain[k][1::2]
        meet[agree] = k
        meet_len[agree] = ftree.tilde_lengths[k][xs[agree]]
    shift = meet_len - meet + level
    src, img = level_table(ftree, level, flat)
    t = ftree.tilde_lengths[level][flat]
    tx, ty = t[0::2], t[1::2]
    top = np.maximum(tx, ty)
    # both images over M^top: img * M^(top - t) < M^top
    ux = (m ** (top - tx).astype(img.dtype))[:, None]
    uy = (m ** (top - ty).astype(img.dtype))[:, None]
    num = np.abs(img[0::2] * ux - img[1::2] * uy).max(axis=1)
    den = np.abs(src[0::2] - src[1::2]).max(axis=1)
    return (
        [a * m**e for a, e in zip(num.tolist(), shift.tolist())],
        [b * m**e for b, e in zip(den.tolist(), top.tolist())],
    )


def pair_ratios(ftree: FlaggedTree, level: int, pairs) -> list[Fraction]:
    """Exact distortion of the corner map between pairs of a level's
    nodes, rescaled by the rewriting of their meet:

        dist(f(x), f(y)) * M^(|rewritten meet| - |meet|) / dist(corner(x), corner(y))

    pairs is an (n, 2) array of node indices of the level; a pair of
    equal nodes raises.  The meet's length is the number of levels >= 1
    where the two prefix chains agree.  Numerators and denominators are
    Python integers, so rows past int64 stay exact.
    """
    return [Fraction(a, b) for a, b in zip(*_pair_ratio_terms(ftree, level, pairs))]
