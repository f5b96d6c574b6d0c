"""Boundary-death substitution on surviving words.

A surviving word of level n is flagged when none of its boundary-cell
children survived to level n+1.  The substitution rewrites a word by
inserting the configured word eta immediately before every letter whose
parent prefix is flagged; rewriting happens in one pass over the source
word and is never re-applied inside inserted blocks.  Mapping rewritten
words through their corner points yields a map of surviving corners that
shrinks flagged branches by an extra factor M^-K.

compute_flags sweeps the tree's packed level masks once, each unpacked
once: a node's flag is read off its mask row (its first n_boundary bits
all 0), and each level's rewritten lengths extend the level above by
one gather through the parents.  level_table extends the integer corner
numerators of the source and rewritten words the same way, on first
use, and pair_ratios turns rows of them into exact two-point
distortions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import corner_nums, label_offsets
from .percolation import PercTree


@dataclass(frozen=True, eq=False)
class FlaggedTree:
    """A sampled tree with per-node flags and rewritten-word lengths,
    from one sweep down its packed masks.

    flags[k][i] is defined for levels k < depth only: the flag reads the
    children at level k+1, and the deepest sampled level has unknown
    children.  tilde_lengths[k][i] is the length of the rewritten word of
    node i at level k: k + K * (flagged proper prefixes).  positions[k]
    holds the set-bit positions par M^d + label - 1 of level k's mask,
    in ascending order (positions[0] is None: the root has no parent).
    All three are tuples of read-only arrays.  The exact corner tables
    that level_table reads are extended from them on first use, since
    only some commands need them.
    """

    tree: PercTree
    flags: tuple[np.ndarray, ...]
    tilde_lengths: tuple[np.ndarray, ...]
    positions: tuple[np.ndarray | None, ...]

    @property
    def params(self):
        return self.tree.params

    @property
    def depth(self) -> int:
        return self.tree.depth

    @cached_property
    def _tables(self) -> list[np.ndarray]:
        dtype = object if self.params.m**self.params.k >= 2**63 else np.int64
        return [_frozen(np.zeros((1, 2 * self.params.d), dtype=dtype))]

    def _table(self, level: int) -> np.ndarray:
        """The read-only table of a level, extended from the deepest one
        built; row i holds node i's src then img corner numerators:

            src' = src[par] M + off[lab]
            img' = where(flag, img M^K + eta, img)[par] M + off[lab]

        with par, lab = divmod(positions, M^d).  Tables are int64 until
        the first level where M^(longest rewritten length) or M^K reaches
        2^63, and Python ints in object arrays from that level down.
        """
        self.tree.count(level)  # range check
        pr = self.params
        m, d = pr.m, pr.d
        offs = label_offsets(m, d)[0]
        offsets = np.hstack([offs, offs])
        # a flagged row's img columns become img M^K + eta
        scale = [1] * d + [m**pr.k] * d
        insert = [0] * d + list(corner_nums(pr, pr.eta))
        tables = self._tables
        for k in range(len(tables) - 1, level):
            par, lab = np.divmod(self.positions[k + 1], pr.alphabet_size)
            tab = tables[k]
            longest = int(self.tilde_lengths[k + 1].max(initial=0))
            if tab.dtype != object and m ** max(pr.k, longest) >= 2**63:
                tab = tab.astype(object)
            flagged = np.flatnonzero(self.flags[k])
            if flagged.size:  # a childless one may wrap in int64; no child reads it
                tab = tab.copy()
                tab[flagged] = tab[flagged] * np.array(
                    scale, dtype=tab.dtype
                ) + np.array(insert, dtype=tab.dtype)
            # np.take and in-place arithmetic: fewer level-sized temporaries
            tab = np.take(tab, par, axis=0)
            tab *= m
            tab += np.take(offsets, lab, axis=0)
            tables.append(_frozen(tab))
        return tables[level]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def compute_flags(tree: PercTree) -> FlaggedTree:
    """Flag every node of level < depth whose boundary children all died.

    One loop down the tree unpacks each level's mask once.  Its set bits
    sit at positions par M^d + lab, lab = label - 1; a row is flagged
    when its first n_boundary bits (the boundary cells) are all 0, and

        tls' = (tls + 1 + K flag)[par]

    A childless node is flagged vacuously; no surviving word passes
    through it, so the flag is never consumed by the substitution.
    """
    if tree.depth < 1:
        raise PreconditionError("flags need at least one sampled child level")
    pr = tree.params
    a, nb = pr.alphabet_size, pr.n_boundary
    steps = np.array([1, 1 + pr.k])
    flags, tls, positions = [], [_frozen(np.zeros(1, dtype=np.int64))], [None]
    for k, mask in enumerate(tree.masks):
        bits = np.unpackbits(
            np.frombuffer(mask, dtype=np.uint8), count=tree.counts[k] * a
        ).view(bool)
        fl = ~bits.reshape(-1, a)[:, :nb].any(axis=1)
        pos = np.flatnonzero(bits)
        flags.append(_frozen(fl))
        tls.append(_frozen(np.take(tls[k] + steps[fl.view(np.uint8)], pos // a)))
        positions.append(_frozen(pos))
    return FlaggedTree(tree, tuple(flags), tuple(tls), tuple(positions))


def level_table(
    ftree: FlaggedTree, level: int, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact corners of a level's words and of their rewritten words.

    For every node of the level (or the given node indices) returns
    (src, img), two fresh (n, d) arrays of integer corner numerators: src
    over M^level, img over M^(rewritten length), the length being
    ftree.tilde_lengths[level][node].  Rows are read from the tree's
    tables, built once per level, so they take their level's dtype: int64
    down to the first level where M^(longest rewritten length) or M^K
    reaches 2^63, Python ints in object arrays from there on.
    """
    tab = ftree._table(level)
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
    positions = ftree.positions
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
