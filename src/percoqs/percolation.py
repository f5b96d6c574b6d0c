"""Fractal percolation sampling with counter-based per-node randomness.

Every node of the M^d-ary address tree carries a 64-bit key: the root's
is mix64(seed) and child j of node w gets mix64(key(w) XOR j * PHI)
(mod 2^64), where mix64 is the SplitMix64 finaliser and PHI the 64-bit
golden-ratio constant.  A non-root node survives iff its key is below
floor(p * 2^64).  Verdicts are therefore a pure function of (seed, word):
independent of evaluation order and of which other nodes were ever
examined.  The sampler evaluates one whole level at a time on uint64
arrays.  A sampled tree stores, per level, one bit per candidate cell:
the packed verdicts of every child of every surviving node of the level
above, in row-major (parent, label) order, which is also the
lexicographic order of the surviving words.  Parent-index / label arrays
are derived from these masks on first use; children of a node occupy a
contiguous slice of the next level.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError
from .lattice import Params, _json_ready

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_REJECTION_BUDGET = 10**6
_TREE_FORMAT = "percoqs-tree/3"

_TWO64 = 2**64
# the SplitMix64 increment and finaliser constants (Steele, Lea & Flood 2014)
_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _validate_seed(seed: int) -> None:
    if not (0 <= seed < _TWO64):
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")


def survival_threshold(p: float) -> int:
    """floor(p * 2^64); a node survives iff its 64-bit key is below."""
    if not (0.0 <= p < 1.0):
        raise DomainError(f"survival probability must lie in [0, 1), got {p}")
    # p * 2^64 is an exact binary64 scaling, so the floor is reproducible
    # across implementations.
    return int(p * 2.0**64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of a uint64 array, wrapping mod 2^64; the
    input is left untouched."""
    z = z ^ (z >> np.uint64(30))
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _root_key(seed: int) -> np.ndarray:
    _validate_seed(seed)
    return _mix64(np.array([seed], dtype=np.uint64))


def derive_seed(master_seed: int, *parts: object) -> int:
    """Deterministic sub-seed for independent trials: the first 8 bytes
    of SHA-256 over the '|'-separated message, a stream separate from
    the node keys."""
    msg = f"{master_seed}|" + "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(msg.encode("ascii")).digest()[:8], "big")


@dataclass(frozen=True, eq=False)
class PercTree:
    """Surviving words of a depth-n sample, level by level.

    masks[k-1], for level k >= 1, is the immutable bytes of np.packbits
    of the row-major (count(k-1), M^d) boolean array whose entry (i, j)
    says that child j+1 of node i of level k-1 survived; counts[k] is the
    number of survivors of level k (counts[0] = 1, the root).

    parents[k][i] indexes the parent of node i of level k inside level
    k-1; labels[k][i] is its last letter.  Both are read-only int32 arrays
    (int32 holds any level this sampler can keep in memory), unpacked from
    the masks on first use; level 0 is the root sentinel (parent -1,
    label 0).  Within a level, nodes are sorted by (parent index, label),
    i.e. lexicographically by word.
    """

    params: Params
    seed: int
    depth: int
    masks: tuple[bytes, ...]
    counts: tuple[int, ...]

    def count(self, level: int) -> int:
        """Number of surviving words of a level."""
        if not (0 <= level <= self.depth):
            raise DomainError(f"level {level} outside 0..{self.depth}")
        return self.counts[level]

    @property
    def nonextinct(self) -> bool:
        return self.count(self.depth) > 0

    @cached_property
    def _links(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        a = self.params.alphabet_size
        parents = [np.array([-1], dtype=np.int32)]
        labels = [np.array([0], dtype=np.int32)]
        for k, mask in enumerate(self.masks):
            bits = np.unpackbits(
                np.frombuffer(mask, dtype=np.uint8), count=self.counts[k] * a
            )
            par, lab = np.divmod(np.flatnonzero(bits), a)
            parents.append(par.astype(np.int32))
            labels.append(lab.astype(np.int32) + 1)
        for arr in parents + labels:
            arr.flags.writeable = False
        return tuple(parents), tuple(labels)

    @property
    def parents(self) -> tuple[np.ndarray, ...]:
        return self._links[0]

    @property
    def labels(self) -> tuple[np.ndarray, ...]:
        return self._links[1]

    def to_json_dict(self) -> dict:
        return {
            "format": _TREE_FORMAT,
            **_json_ready(self.params),
            "seed": self.seed,
            "depth": self.depth,
            "levels": [base64.b64encode(m).decode("ascii") for m in self.masks],
        }

    def to_canonical_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), separators=(",", ":")) + "\n").encode(
            "ascii"
        )


def _find_sorted(codes: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Positions of `want` in the ascending array `codes`, -1 where absent."""
    pos = np.searchsorted(codes, want)
    hit = pos < codes.shape[0]
    hit[hit] = codes[pos[hit]] == want[hit]
    return np.where(hit, pos, -1)


def _json_int(value, key: str) -> int:
    # JSON true and false parse to bools, which are ints to Python
    if type(value) is not int:
        raise DomainError(
            f"malformed tree file: {key} must be a JSON integer, got {value!r}"
        )
    return value


def _tree_from_levels(params: Params, seed: int, depth: int, levels) -> PercTree:
    """Decode and validate the base64 level masks of a /3 file: one
    canonical string per level, each exactly as long as its parents'
    candidates need, with zero padding bits."""
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    if type(levels) is not list or len(levels) != depth:
        raise DomainError(
            f"malformed tree file: levels must be a list of {depth} base64 strings"
        )
    a = params.alphabet_size
    masks, counts = [], [1]
    for k, text in enumerate(levels, 1):
        if type(text) is not str:
            raise DomainError(f"malformed tree file: level {k} is not a string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error included
            raise DomainError(f"malformed tree file: level {k}: {exc}") from None
        if base64.b64encode(raw).decode("ascii") != text:
            raise DomainError(f"malformed tree file: level {k} is not canonical base64")
        nbits = counts[-1] * a
        if len(raw) != -(-nbits // 8):
            raise DomainError(
                f"malformed tree file: level {k} holds {len(raw)} bytes, not the "
                f"{-(-nbits // 8)} that {counts[-1]} x {a} verdicts pack into"
            )
        if nbits % 8 and raw[-1] & (0xFF >> (nbits % 8)):
            raise DomainError(f"malformed tree file: level {k} has nonzero padding")
        masks.append(raw)
        counts.append(int(np.bitwise_count(np.frombuffer(raw, dtype=np.uint8)).sum()))
    return PercTree(params, seed, depth, tuple(masks), tuple(counts))


def tree_from_json_dict(obj: dict) -> PercTree:
    """Read a percoqs-tree/3 object, which stores base64 level masks.
    M, d, K, depth, seed and the eta labels must be JSON integers, the
    seed in [0, 2^64), and p a JSON number; another format, or a missing
    or malformed field, raises DomainError."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != _TREE_FORMAT:
        raise DomainError(
            f"unsupported tree format {fmt!r}; only {_TREE_FORMAT} is read"
        )
    try:
        m, d, k, depth, seed = (
            _json_int(obj[key], key) for key in ("M", "d", "K", "depth", "seed")
        )
        p = obj["p"]
        if type(p) not in (int, float):
            raise DomainError(f"malformed tree file: p must be a JSON number, got {p!r}")
        p = float(p)
        eta = tuple(_json_int(l, "eta") for l in obj["eta"])
        levels = obj["levels"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise DomainError(
            f"malformed tree file: {type(exc).__name__}: {exc}"
        ) from None
    _validate_seed(seed)
    params = Params(m=m, d=d, p=p, k=k, eta=eta)
    return _tree_from_levels(params, seed, depth, levels)


def sample_tree(
    params: Params,
    depth: int,
    seed: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PercTree:
    """Sample the percolation tree to a fixed depth.

    Evaluates every child of every surviving node, one level at a time:
    an (n, M^d) array of child keys, whose below-threshold verdicts,
    packed in row-major order, are the next level's mask, and whose
    surviving entries are its keys.
    The budget caps the number of candidate evaluations and aborts before
    a level that would exceed it (no silent truncation).
    """
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    a = params.alphabet_size
    thr = np.uint64(survival_threshold(params.p))
    salts = None
    masks, counts = [], [1]
    keys = _root_key(seed)
    evaluated = 0
    for level in range(depth):
        n_candidates = keys.shape[0] * a
        if evaluated + n_candidates > node_budget:
            raise CapacityError(
                f"node budget {node_budget} would be exceeded at level "
                f"{level + 1} ({evaluated} evaluated, {n_candidates} pending); "
                "raise the budget to sample deeper"
            )
        evaluated += n_candidates
        if salts is None:  # built only once the budget admits M^d candidates
            salts = np.arange(1, a + 1, dtype=np.uint64) * _PHI
        child = _mix64(keys[:, None] ^ salts)
        alive = child < thr
        masks.append(np.packbits(alive).tobytes())
        keys = child[alive]
        counts.append(int(keys.shape[0]))
    return PercTree(params, seed, depth, tuple(masks), tuple(counts))


def sample_nonextinct(
    params: Params,
    depth: int,
    seed: int,
    max_attempts: int = DEFAULT_REJECTION_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[PercTree, int]:
    """Rejection-sample a tree with survivors at the target depth.

    Attempts master seeds seed, seed+1, ... and returns (tree,
    rejections).  Exhausting the attempt budget raises, with a hint when
    the parameters sit in the almost-sure-extinction regime.
    """
    if max_attempts < 1:
        raise DomainError(f"max_attempts must be >= 1, got {max_attempts}")
    _validate_seed(seed)
    for attempt in range(max_attempts):
        tree = sample_tree(
            params, depth, (seed + attempt) % _TWO64, node_budget=node_budget
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
