"""Boundary-death substitution on surviving words.

A surviving word of level n is flagged when none of its boundary-cell
children survived to level n+1.  The substitution rewrites a word by
inserting the configured word eta immediately before every letter whose
parent prefix is flagged; rewriting happens in one pass over the source
word and is never re-applied inside inserted blocks.  Mapping rewritten
words through their corner points yields a map of surviving corners that
shrinks flagged branches by an extra factor M^-K.

The exact geometry is computed a whole level at a time: level_table
gives the integer corner numerators of the source and rewritten words,
and pair_ratios turns rows of it into exact two-point distortions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import corner_nums, label_offsets
from .percolation import PercTree


@dataclass(frozen=True, eq=False)
class FlaggedTree:
    """A sampled tree with per-node flags and rewritten-word lengths.

    flags[k][i] is defined for levels k < depth only: the flag reads the
    children at level k+1, and the deepest sampled level has unknown
    children.  tilde_lengths[k][i] is the length of the rewritten word of
    node i at level k: k + K * (flagged proper prefixes).
    """

    tree: PercTree
    flags: tuple[np.ndarray, ...]
    tilde_lengths: tuple[np.ndarray, ...]

    @property
    def params(self):
        return self.tree.params

    @property
    def depth(self) -> int:
        return self.tree.depth


def compute_flags(tree: PercTree) -> FlaggedTree:
    """Flag every node of level < depth whose boundary children all died.

    A childless node is flagged vacuously; no surviving word passes
    through it, so the flag is never consumed by the substitution.
    """
    if tree.depth < 1:
        raise PreconditionError("flags need at least one sampled child level")
    nb = tree.params.n_boundary
    kk = tree.params.k
    flags = []
    tls = [np.zeros(1, dtype=np.int64)]
    for k in range(tree.depth):
        par = tree.parents[k + 1]
        lab = tree.labels[k + 1]
        has_boundary_child = (
            np.bincount(par[lab <= nb], minlength=tree.count(k)) > 0
        )
        fl = ~has_boundary_child
        flags.append(fl)
        tls.append(tls[k][par] + 1 + kk * fl[par].astype(np.int64))
    return FlaggedTree(tree, tuple(flags), tuple(tls))


def level_table(
    ftree: FlaggedTree, level: int, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact corners of a level's words and of their rewritten words.

    For every node of the level (or the given node indices) returns
    (src, img), two (n, d) arrays of integer corner numerators: src over
    M^level, img over M^(rewritten length), the length being
    ftree.tilde_lengths[level][node].  Numerators are int64 while M^(the
    longest rewritten length) and M^K are below 2^63, and Python ints in
    object arrays past that.
    """
    tree = ftree.tree
    pr = ftree.params
    chain = tree.prefix_nodes(level, nodes)
    lengths = ftree.tilde_lengths[level][chain[-1]]
    # the insertion block's corner, below M^K, must fit as well
    wide = pr.m ** max(pr.k, int(lengths.max(initial=0))) >= 2**63
    dtype = object if wide else np.int64
    offs = label_offsets(pr.m, pr.d)[0].astype(dtype)
    eta = np.array(corner_nums(pr, pr.eta), dtype=dtype)
    shift = pr.m**pr.k
    src = np.zeros((chain[-1].shape[0], pr.d), dtype=dtype)
    img = src.copy()
    for n in range(level):
        # eta goes in front of the letter whose parent prefix is flagged
        flagged = ftree.flags[n][chain[n]]
        img[flagged] = img[flagged] * shift + eta
        o = offs[tree.labels[n + 1][chain[n + 1]] - 1]
        src = src * pr.m + o
        img = img * pr.m + o
    return src, img


def pair_ratios(ftree: FlaggedTree, level: int, pairs) -> list[Fraction]:
    """Exact distortion of the corner map between pairs of a level's
    nodes, rescaled by the rewriting of their meet:

        dist(f(x), f(y)) * M^(|rewritten meet| - |meet|) / dist(corner(x), corner(y))

    pairs is an (n, 2) array of node indices of the level; a pair of
    equal nodes raises.  The meet's length is the number of levels >= 1
    where the two prefix chains agree.  Numerators and denominators are
    Python integers, so rows past int64 stay exact.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise DomainError("a pair must join two distinct nodes")
    m = ftree.params.m
    flat = pairs.ravel()
    chain = ftree.tree.prefix_nodes(level, flat)
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
    src, img = src.tolist(), img.tolist()
    t = ftree.tilde_lengths[level][flat].tolist()
    out = []
    for j, e in enumerate(shift.tolist()):
        x, y = 2 * j, 2 * j + 1
        top = max(t[x], t[y])
        ux, uy = m ** (top - t[x]), m ** (top - t[y])
        num = max(abs(a * ux - b * uy) for a, b in zip(img[x], img[y]))
        den = max(abs(a - b) for a, b in zip(src[x], src[y]))
        out.append(Fraction(num * m**e, den * m**top))
    return out
