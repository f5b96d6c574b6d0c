"""Fractal percolation sampling with counter-based per-node randomness.

Each node of the M^d-ary address tree survives or dies by hashing the
master seed together with the node's full label path, so verdicts are a
pure function of (seed, word): independent of evaluation order, thread
count, and of which other nodes were ever examined.  The root always
survives.  A sampled tree keeps, per level, the surviving words in
lexicographic order as parallel parent-index / label arrays; children of
a node occupy a contiguous slice of the next level.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .lattice import Params, Word, validate_label, validate_word

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_REJECTION_BUDGET = 10**6

_TWO64 = 2**64


def _validate_seed(seed: int) -> None:
    if not (0 <= seed < _TWO64):
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")


def survival_threshold(p: float) -> int:
    """floor(p * 2^64); a node survives iff its 64-bit hash value is below."""
    if not (0.0 <= p < 1.0):
        raise DomainError(f"survival probability must lie in [0, 1), got {p}")
    # p * 2^64 is an exact binary64 scaling, so the floor is reproducible
    # across implementations.
    return int(p * 2.0**64)


@dataclass(frozen=True)
class SeedPolicy:
    """Master seed for a whole tree; node verdicts derive from it."""

    master_seed: int

    def __post_init__(self) -> None:
        _validate_seed(self.master_seed)

    def node_message(self, word: Word) -> bytes:
        if len(word) < 1:
            raise DomainError("the root is never hashed; need a word of length >= 1")
        return f"{self.master_seed}:{'.'.join(str(l) for l in word)}".encode("ascii")


def node_survives(policy: SeedPolicy, p: float, word: Word) -> bool:
    """Survival verdict for one node: first 8 digest bytes, big-endian,
    compared against floor(p * 2^64)."""
    digest = hashlib.sha256(policy.node_message(word)).digest()
    u = int.from_bytes(digest[:8], "big")
    return u < survival_threshold(p)


def derive_seed(master_seed: int, *parts: object) -> int:
    """Deterministic sub-seed for independent trials; the '|'-separated
    message space is disjoint from node messages."""
    msg = f"{master_seed}|" + "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(msg.encode("ascii")).digest()[:8], "big")


def _scan_chunk(
    msgs: list[bytes], suffixes: list[bytes], thr: bytes, base: int
) -> tuple[list[int], list[int], list[bytes]]:
    """Evaluate all children of a run of parent messages.

    thr is the 8-byte big-endian threshold; comparing the full 32-byte
    digest against it lexicographically equals the strict u < threshold
    test on the leading 8 bytes.
    """
    sha = hashlib.sha256
    parents: list[int] = []
    labels: list[int] = []
    out_msgs: list[bytes] = []
    for i, m in enumerate(msgs):
        for j, suf in enumerate(suffixes):
            cand = m + suf
            if sha(cand).digest() < thr:
                parents.append(base + i)
                labels.append(j + 1)
                out_msgs.append(cand)
    return parents, labels, out_msgs


@dataclass(frozen=True, eq=False)
class PercTree:
    """Surviving words of a depth-n sample, level by level.

    parents[k][i] indexes the parent of node i of level k inside level
    k-1; labels[k][i] is its last letter.  Both are int32, which holds
    any level this sampler can keep in memory.  Level 0 is the root sentinel
    (parent -1, label 0).  Within a level, nodes are sorted by
    (parent index, label), i.e. lexicographically by word.
    """

    params: Params
    seed: int
    depth: int
    parents: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]

    def count(self, level: int) -> int:
        """Number of surviving words of a level."""
        if not (0 <= level <= self.depth):
            raise DomainError(f"level {level} outside 0..{self.depth}")
        return int(self.labels[level].shape[0])

    @property
    def nonextinct(self) -> bool:
        return self.count(self.depth) > 0

    def child_range(self, level: int, index: int) -> tuple[int, int]:
        """Slice [lo, hi) of level+1 holding the children of a node."""
        if level >= self.depth:
            raise DomainError(f"level {level} has no child level (depth {self.depth})")
        par = self.parents[level + 1]
        # a Python int key sends searchsorted on int32 down a path about
        # six times slower than a key of the array's own type
        key = np.int32(index)
        return int(par.searchsorted(key, "left")), int(par.searchsorted(key, "right"))

    def child_labels(self, level: int, index: int) -> tuple[int, ...]:
        """Surviving child labels of a node, ascending."""
        lo, hi = self.child_range(level, index)
        return tuple(int(l) for l in self.labels[level + 1][lo:hi])

    def child_index(self, level: int, index: int, label: int) -> int | None:
        """Index of child 'label' of a node in level+1, or None if dead."""
        lo, hi = self.child_range(level, index)
        lab = self.labels[level + 1]
        pos = lo + int(np.searchsorted(lab[lo:hi], label))
        if pos < hi and int(lab[pos]) == label:
            return pos
        return None

    def find(self, word: Word) -> int | None:
        """Index of a word in its level, or None if it died."""
        if len(word) > self.depth:
            raise DomainError(f"word longer than sampled depth {self.depth}")
        idx = 0
        for level, lab in enumerate(word):
            nxt = self.child_index(level, idx, lab)
            if nxt is None:
                return None
            idx = nxt
        return idx

    def word_of(self, level: int, index: int) -> Word:
        """Reconstruct the word of a node by walking parent links."""
        out = []
        k, i = level, index
        while k > 0:
            out.append(int(self.labels[k][i]))
            i = int(self.parents[k][i])
            k -= 1
        return tuple(reversed(out))

    def prefix_nodes(self, level: int, nodes=None) -> list[np.ndarray]:
        """Node indices of every prefix of a level's nodes.

        Entry k holds, for each node of the level (or of the given node
        indices, in their order), the index of its length-k prefix in
        level k; entry `level` holds the nodes themselves.
        """
        count = self.count(level)
        idx = np.arange(count) if nodes is None else np.asarray(nodes, dtype=np.int64)
        chain = [idx]
        for k in range(level, 0, -1):
            idx = self.parents[k][idx]
            chain.append(idx)
        return chain[::-1]

    def label_matrix(self, level: int) -> np.ndarray:
        """(n, level) labels whose row j is the word of node j of the
        level."""
        chain = self.prefix_nodes(level)
        out = np.empty((chain[-1].shape[0], level), dtype=np.int64)
        for k in range(1, level + 1):
            out[:, k - 1] = self.labels[k][chain[k]]
        return out

    def words(self, level: int) -> list[Word]:
        """All surviving words of a level, lexicographically sorted."""
        return [tuple(w) for w in self.label_matrix(level).tolist()]

    def to_json_dict(self) -> dict:
        pr = self.params
        return {
            "format": "percoqs-tree/1",
            "M": pr.m,
            "d": pr.d,
            "p": pr.p,
            "K": pr.k,
            "eta": list(pr.eta),
            "seed": self.seed,
            "depth": self.depth,
            "survivors": [self.label_matrix(k).tolist() for k in range(self.depth + 1)],
        }

    def to_canonical_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), separators=(",", ":")) + "\n").encode(
            "ascii"
        )


def _word_rows(params: Params, words, k: int) -> np.ndarray:
    """The words of level k as a validated (n, k) label matrix."""
    try:
        rows = np.array(words)
    except ValueError:  # ragged nesting
        rows = None
    if rows is not None and rows.shape == (0,):
        rows = rows.reshape(0, k)
    if rows is None or rows.ndim != 2 or rows.shape[1] != k:
        raise DomainError(f"every word at level {k} must have length {k}")
    if rows.size and rows.dtype.kind not in "iu":
        raise DomainError(f"labels at level {k} must be integers, got {rows.dtype}")
    rows = rows.astype(np.int64)
    bad = (rows < 1) | (rows > params.alphabet_size)
    if bad.any():
        validate_label(params, int(rows[bad][0]))
    return rows


def _find_sorted(codes: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Positions of `want` in the ascending array `codes`, -1 where absent."""
    pos = np.searchsorted(codes, want)
    hit = pos < codes.shape[0]
    hit[hit] = codes[pos[hit]] == want[hit]
    return np.where(hit, pos, -1)


def tree_from_words(
    params: Params, depth: int, survivors: list[list[Word]], seed: int = 0
) -> PercTree:
    """Build a tree from explicit per-level word lists (level 0 = [()]).

    Validates lengths, labels, duplicates and prefix closure; input
    order is irrelevant.  A level's nodes are keyed by their (parent
    index, label) code, which ascends with the lexicographic order, so a
    word's prefix is found by descending from the root through each
    level's codes.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    if len(survivors) != depth + 1:
        raise DomainError(
            f"need {depth + 1} levels of survivors, got {len(survivors)}"
        )
    if _word_rows(params, survivors[0], 0).shape[0] != 1:
        raise DomainError("level 0 must contain exactly the empty word")
    base = params.alphabet_size + 1
    parents = [np.array([-1], dtype=np.int32)]
    labels = [np.array([0], dtype=np.int32)]
    codes = [np.zeros(1, dtype=np.int64)]
    for k in range(1, depth + 1):
        rows = _word_rows(params, survivors[k], k)
        rows = rows[np.lexsort(rows.T[::-1])]
        dup = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        if dup.size:
            raise DomainError(
                f"duplicate word {tuple(rows[dup[0]].tolist())} at level {k}"
            )
        # -1 marks a missing prefix; the negative codes it makes never match
        par = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(1, k):
            par = _find_sorted(codes[j], par * base + rows[:, j - 1])
        dead = np.flatnonzero(par < 0)
        if dead.size:
            w = tuple(rows[dead[0]].tolist())
            raise DomainError(f"word {w} has a dead prefix {w[:-1]}")
        parents.append(par.astype(np.int32))
        labels.append(rows[:, -1].astype(np.int32))
        codes.append(par * base + rows[:, -1])
    return PercTree(params, seed, depth, tuple(parents), tuple(labels))


def tree_from_json_dict(obj: dict) -> PercTree:
    """Read a percoqs-tree/1 object; a missing or malformed field raises
    DomainError."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != "percoqs-tree/1":
        raise DomainError(f"unsupported tree format {fmt!r}")
    try:
        m, d, k = int(obj["M"]), int(obj["d"]), int(obj["K"])
        p = float(obj["p"])
        eta = tuple(int(l) for l in obj["eta"])
        depth, seed = int(obj["depth"]), int(obj["seed"])
        survivors = list(obj["survivors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(
            f"malformed tree file: {type(exc).__name__}: {exc}"
        ) from None
    params = Params(m=m, d=d, p=p, k=k, eta=eta)
    return tree_from_words(params, depth, survivors, seed=seed)


def sample_tree(
    params: Params,
    depth: int,
    seed: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> PercTree:
    """Sample the percolation tree to a fixed depth.

    Evaluates every child of every surviving node; the budget caps the
    number of candidate evaluations and aborts before a level that would
    exceed it (no silent truncation).  Worker processes split each level
    into contiguous runs, so the result is byte-identical for any worker
    count.
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    _validate_seed(seed)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    a = params.alphabet_size
    thr = survival_threshold(params.p).to_bytes(8, "big")
    parents = [np.array([-1], dtype=np.int32)]
    labels = [np.array([0], dtype=np.int32)]
    msgs = [str(seed).encode("ascii")]
    evaluated = 0
    pool = None
    if workers > 1:
        # imported here: the pool's modules cost 2 MB of RSS that
        # single-worker runs never use
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for level in range(depth):
            n_candidates = len(msgs) * a
            if evaluated + n_candidates > node_budget:
                raise CapacityError(
                    f"node budget {node_budget} would be exceeded at level "
                    f"{level + 1} ({evaluated} evaluated, {n_candidates} pending); "
                    "raise the budget to sample deeper"
                )
            evaluated += n_candidates
            sep = b":" if level == 0 else b"."
            suffixes = [sep + str(j).encode("ascii") for j in range(1, a + 1)]
            if pool is not None and len(msgs) >= 2 * workers:
                step = -(-len(msgs) // workers)
                futures = [
                    pool.submit(_scan_chunk, msgs[b : b + step], suffixes, thr, b)
                    for b in range(0, len(msgs), step)
                ]
                par: list[int] = []
                lab: list[int] = []
                nxt: list[bytes] = []
                for fut in futures:  # submission order keeps results canonical
                    cp, cl, cm = fut.result()
                    par.extend(cp)
                    lab.extend(cl)
                    nxt.extend(cm)
            else:
                par, lab, nxt = _scan_chunk(msgs, suffixes, thr, 0)
            parents.append(np.array(par, dtype=np.int32))
            labels.append(np.array(lab, dtype=np.int32))
            msgs = nxt
    finally:
        if pool is not None:
            pool.shutdown()
    return PercTree(params, seed, depth, tuple(parents), tuple(labels))


def sample_nonextinct(
    params: Params,
    depth: int,
    seed: int,
    max_attempts: int = DEFAULT_REJECTION_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> tuple[PercTree, int]:
    """Rejection-sample a tree with survivors at the target depth.

    Attempts master seeds seed, seed+1, ... and returns (tree,
    rejections).  Exhausting the attempt budget raises, with a hint when
    the parameters sit in the almost-sure-extinction regime.
    """
    if max_attempts < 1:
        raise DomainError(f"max_attempts must be >= 1, got {max_attempts}")
    for attempt in range(max_attempts):
        tree = sample_tree(
            params,
            depth,
            (seed + attempt) % _TWO64,
            node_budget=node_budget,
            workers=workers,
        )
        if tree.nonextinct:
            return tree, attempt
    hint = ""
    if params.p <= params.m**-params.d:
        hint = (
            f" (p={params.p} <= M^-d={params.m ** -params.d:.6g}: extinction "
            "is almost sure, so rejection sampling cannot terminate)"
        )
    raise CapacityError(
        f"no tree with depth-{depth} survivors in {max_attempts} attempts{hint}"
    )


def subtree(tree: PercTree, word: Word) -> PercTree:
    """The subtree rooted at a surviving word, re-rooted as its own tree.

    Descendants of a node are contiguous per level (lexicographic
    order), so extraction is a chain of sorted-range lookups.  The seed
    is carried over for provenance only; the subtree is not a fresh
    sample of it.
    """
    word = tuple(word)
    validate_word(tree.params, word)
    idx = tree.find(word)
    if idx is None:
        raise DomainError(f"word {word} is not a survivor of this tree")
    n = len(word)
    parents = [np.array([-1], dtype=np.int32)]
    labels = [np.array([0], dtype=np.int32)]
    lo, hi = idx, idx + 1
    for k in range(n + 1, tree.depth + 1):
        par = tree.parents[k]
        new_lo = int(np.searchsorted(par, lo, side="left"))
        new_hi = int(np.searchsorted(par, hi, side="left"))
        # parent ids re-base against the previous level's slice start
        parents.append(par[new_lo:new_hi] - lo)
        labels.append(tree.labels[k][new_lo:new_hi].copy())
        lo, hi = new_lo, new_hi
    return PercTree(
        tree.params, tree.seed, tree.depth - n, tuple(parents), tuple(labels)
    )


def truncate(tree: PercTree, depth: int) -> PercTree:
    """Restrict a sampled tree to a smaller depth (levels are shared)."""
    if not (0 <= depth <= tree.depth):
        raise DomainError(f"depth {depth} outside 0..{tree.depth}")
    return PercTree(
        tree.params,
        tree.seed,
        depth,
        tree.parents[: depth + 1],
        tree.labels[: depth + 1],
    )
