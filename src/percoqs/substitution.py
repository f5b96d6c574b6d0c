"""Boundary-death substitution on surviving words.

A surviving word of level n is flagged when none of its boundary-cell
children survived to level n+1.  The substitution rewrites a word by
inserting the configured word eta immediately before every letter whose
parent prefix is flagged; rewriting happens in one pass over the source
word and is never re-applied inside inserted blocks.  Mapping rewritten
words through their corner points yields a map of surviving corners that
shrinks flagged branches by an extra factor M^-K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import (
    Box,
    ExactPoint,
    Word,
    dist_max,
    label_to_offset,
    pi_finite,
    validate_word,
    word_meet,
)
from .percolation import PercTree


@dataclass(frozen=True)
class TildeWord:
    """A rewritten word plus the 1-based source positions that triggered
    an insertion."""

    labels: Word
    insertions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.labels)


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
        nxt = ftree.tree.child_index(n, nodes[-1], word[n])
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
    if word and ftree.tree.find(word) is None:
        raise PreconditionError(f"word {word} did not survive; corner has no image")
    return pi_finite(ftree.params, tw.labels)


def level_table(
    ftree: FlaggedTree, level: int, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact corners of a level's words and of their rewritten words.

    For every node of the level (or the given node indices) returns
    (src, img), two (n, d) arrays of integer corner numerators: src over
    M^level, img over M^(rewritten length), the length being
    ftree.tilde_lengths[level][node].  Numerators are int64 while M^(the
    longest rewritten length) < 2^63 and Python ints in object arrays
    past that.
    """
    tree = ftree.tree
    pr = ftree.params
    chain = tree.prefix_nodes(level, nodes)
    lengths = ftree.tilde_lengths[level][chain[-1]]
    wide = lengths.size > 0 and pr.m ** int(lengths.max()) >= 2**63
    dtype = object if wide else np.int64
    offs = np.array(
        [label_to_offset(pr, l) for l in range(1, pr.alphabet_size + 1)],
        dtype=dtype,
    )
    eta = np.array(pi_finite(pr, pr.eta).nums_at_level(pr.k), dtype=dtype)
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
