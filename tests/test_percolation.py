"""Deterministic tree sampling: key contract, structure, statistics."""

import json

import numpy as np
import pytest
from exact_oracle import child_labels, find, subtree, tree_from_words, truncate, words

from percoqs.errors import CapacityError, DomainError
from percoqs.lattice import Params
from percoqs.percolation import (
    derive_seed,
    sample_nonextinct,
    sample_tree,
    survival_threshold,
    tree_from_json_dict,
)

P32 = Params(m=3, d=2, p=0.7)
P_NEAR_ONE = Params(m=3, d=2, p=1.0 - 2.0**-53)


# --- per-node verdicts -----------------------------------------------------


_MASK64 = 2**64 - 1


def _reference_key(seed, word):
    # the hierarchical SplitMix64 rule in plain Python ints, no shared helpers
    def mix64(z):
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    key = mix64(seed)
    for label in word:
        key = mix64(key ^ ((label * 0x9E3779B97F4A7C15) & _MASK64))
    return key


def _survives(seed, p, word):
    # a non-root node lives iff its key is below floor(p * 2^64)
    return _reference_key(seed, word) < int(p * 2.0**64)


def _check_verdicts(tree):
    # every live node's children are exactly its reference survivors
    a = tree.params.alphabet_size
    for k in range(tree.depth):
        for w in words(tree, k):
            live = {j for j in range(1, a + 1)
                    if _survives(tree.seed, tree.params.p, w + (j,))}
            assert set(child_labels(tree, k, find(tree, w))) == live


def test_node_survives_validation():
    # keys are defined for seeds in [0, 2^64); neither sampler wraps others
    for seed in (-1, 2**64):
        with pytest.raises(DomainError):
            sample_tree(P32, 1, seed)
        with pytest.raises(DomainError):
            sample_nonextinct(P32, 1, seed)


def test_node_survives_matches_reference_key():
    # labels up to 81 (M=3, d=4) and the extreme seeds and thresholds
    for seed in (0, 42, 2**64 - 1):
        for p in (0.001, 0.25, 0.5, 0.75, 0.999):
            _check_verdicts(sample_tree(Params(m=3, d=2, p=p), 2, seed))
            _check_verdicts(sample_tree(Params(m=3, d=4, p=p), 1, seed))


def test_node_survives_frozen_verdict():
    # key(42, (9,)) = 3532799907163358599, about 0.1915 * 2^64, so the
    # node lives at p=0.2 and dies at p=0.19
    assert _reference_key(42, (9,)) == 3532799907163358599
    assert 9 in child_labels(sample_tree(Params(m=3, d=2, p=0.2), 1, 42), 0, 0)
    assert 9 not in child_labels(sample_tree(Params(m=3, d=2, p=0.19), 1, 42), 0, 0)


def test_survival_threshold_edges():
    assert survival_threshold(0.0) == 0
    assert survival_threshold(0.5) == 2**63
    with pytest.raises(DomainError):
        survival_threshold(1.0)
    with pytest.raises(DomainError):
        survival_threshold(-0.1)


def test_derive_seed_range_and_separation():
    seen = {derive_seed(0, "a"), derive_seed(0, "b"), derive_seed(1, "a"),
            derive_seed(0, "a", 0), derive_seed(0, "a", 1)}
    assert len(seen) == 5
    for s in seen:
        assert 0 <= s < 2**64
    assert derive_seed(3, "x", 7) == derive_seed(3, "x", 7)


# --- sampling --------------------------------------------------------------


def test_depth_zero_tree():
    t = sample_tree(P32, 0, 123)
    assert t.count(0) == 1 and t.depth == 0
    assert words(t, 0) == [()]
    assert t.nonextinct


def test_full_tree_near_p_one():
    t = sample_tree(P_NEAR_ONE, 3, 0)
    assert [t.count(k) for k in range(4)] == [1, 9, 81, 729]


def test_sampled_tree_structure():
    t = sample_tree(P32, 4, 7)
    for k in range(1, 5):
        par = t.parents[k]
        lab = t.labels[k]
        # sorted by (parent, label): canonical lexicographic order
        assert np.all(np.diff(par) >= 0)
        same = np.diff(par) == 0
        assert np.all(np.diff(lab)[same] > 0)
        assert par.min() >= 0 and par.max() < t.count(k - 1)
        assert 1 <= lab.min() and lab.max() <= 9
    # the label matrix enumerates in sorted order and agrees with the
    # one-word walk down the child ranges
    for k in range(5):
        ws = words(t, k)
        assert ws == sorted(ws)
        for i, w in enumerate(ws):
            assert find(t, w) == i


def test_every_sampled_node_matches_its_verdict():
    # every live node survives, and every child it lacks dies
    _check_verdicts(sample_tree(P32, 3, 99))


def test_truncate_equals_shallower_sample():
    deep = sample_tree(P32, 5, 11)
    shallow = sample_tree(P32, 3, 11)
    assert truncate(deep, 3).to_canonical_bytes() == shallow.to_canonical_bytes()
    with pytest.raises(DomainError):
        truncate(deep, 6)


def test_node_budget_enforced():
    with pytest.raises(CapacityError):
        sample_tree(P32, 4, 0, node_budget=50)
    # budget counts candidate evaluations: a depth-1 level needs M^d
    t = sample_tree(P32, 1, 0, node_budget=9)
    assert t.depth == 1


def test_branching_mean_small():
    counts = np.array([sample_tree(P32, 3, s).count(3) for s in range(500)])
    expect = (0.7 * 9) ** 3
    se = counts.std(ddof=1) / np.sqrt(500)
    assert abs(counts.mean() - expect) <= 3 * se


# --- conditioning ----------------------------------------------------------


def test_nonextinct_first_try_near_p_one():
    t, rejections = sample_nonextinct(P_NEAR_ONE, 2, 3)
    assert rejections == 0 and t.nonextinct


def test_nonextinct_rejects_seeds_in_order():
    params = Params(m=3, d=2, p=0.2)
    t, rejections = sample_nonextinct(params, 6, 1000)
    assert t.nonextinct and t.count(6) > 0
    assert t.seed == 1000 + rejections
    for s in range(1000, 1000 + rejections):
        assert not sample_tree(params, 6, s).nonextinct


def test_nonextinct_budget_and_extinction_hint():
    # deep in the a.s.-extinction regime; at depth 40 the survival
    # recursion gives q < 1e-12, so every one of 20 attempts goes extinct
    params = Params(m=3, d=2, p=1 / 18)
    with pytest.raises(CapacityError, match="extinction"):
        sample_nonextinct(params, 40, 0, max_attempts=20)


def test_acceptance_rate_matches_branching_survival():
    # truncated-survival recursion q_{k+1} = 1 - (1 - p q_k)^(M^d)
    params = Params(m=3, d=2, p=0.2)
    q = 1.0
    for _ in range(6):
        q = 1.0 - (1.0 - params.p * q) ** 9
    successes = 300
    attempts = 0
    seed = 0
    for _ in range(successes):
        _, rej = sample_nonextinct(params, 6, seed)
        attempts += rej + 1
        seed += rej + 1
    rate = successes / attempts
    sigma = (q * (1 - q) / attempts) ** 0.5
    assert abs(rate - q) <= 3 * sigma


# --- subtrees --------------------------------------------------------------


def test_subtree_root_is_identity():
    t = sample_tree(P32, 3, 21)
    s = subtree(t, ())
    assert s.to_canonical_bytes() == t.to_canonical_bytes()


def test_subtree_words_are_suffixes():
    t = sample_tree(P32, 4, 21)
    w = words(t, 1)[0]
    s = subtree(t, w)
    assert s.depth == 3
    for k in range(4):
        expected = sorted(u[len(w):] for u in words(t, k + len(w)) if u[: len(w)] == w)
        assert words(s, k) == expected
    dead = next(
        u + (j,)
        for u in words(t, 1)
        for j in range(1, 10)
        if j not in child_labels(t, 1, find(t, u))
    )
    with pytest.raises(DomainError):
        subtree(t, dead)


def test_subtree_law_matches_fresh_trees():
    # distribution of the level-2 survivor count of the subtree at a fixed
    # surviving length-1 word vs fresh depth-2 trees (self-similarity)
    from scipy.stats import chi2

    params = P32
    sub_counts = []
    seed = 0
    while len(sub_counts) < 3000:
        t = sample_tree(params, 3, seed)
        seed += 1
        if t.count(1) == 0:
            continue
        sub_counts.append(subtree(t, words(t, 1)[0]).count(2))
    fresh_counts = [sample_tree(params, 2, 10**6 + s).count(2) for s in range(3000)]
    edges = [0, 16, 24, 32, 40, 48, 56, 64, 82]
    a = np.histogram(sub_counts, bins=edges)[0]
    b = np.histogram(fresh_counts, bins=edges)[0]
    keep = (a + b) >= 10
    a, b = a[keep], b[keep]
    stat = ((a - b) ** 2 / (a + b)).sum()  # two-sample chi-square, equal sizes
    assert stat <= chi2.ppf(0.99, df=len(a) - 1)


# --- serialization ---------------------------------------------------------


def test_json_roundtrip():
    t = sample_tree(P32, 3, 17)
    obj = json.loads(t.to_canonical_bytes())
    assert obj["format"] == "percoqs-tree/3"
    # one base64 mask per level: level 1 packs the root's 9 verdicts in 2 bytes
    assert len(obj["levels"]) == 3 and len(obj["levels"][0]) == 4
    back = tree_from_json_dict(obj)
    assert back.to_canonical_bytes() == t.to_canonical_bytes()


def test_read_back_keeps_only_the_masks():
    # reading, re-serialising and counting never unpack the int32 arrays
    t = sample_tree(P32, 5, 11)
    data = t.to_canonical_bytes()
    back = tree_from_json_dict(json.loads(data))
    assert back.to_canonical_bytes() == data
    assert [back.count(k) for k in range(6)] == [t.count(k) for k in range(6)]
    for tree in (t, back):
        assert "_links" not in vars(tree)
        assert all(type(m) is bytes for m in tree.masks)
        assert [len(m) for m in tree.masks] == [
            -(-tree.count(k) * 9 // 8) for k in range(5)]
    # derived on first use: read-only, and the same for both trees
    for k in range(6):
        assert np.array_equal(back.parents[k], t.parents[k])
        assert np.array_equal(back.labels[k], t.labels[k])
    assert "_links" in vars(back)
    assert not back.parents[3].flags.writeable and not back.labels[3].flags.writeable


def test_tree_from_words_validation():
    with pytest.raises(DomainError, match="prefix"):
        tree_from_words(P32, 2, [[()], [(9,)], [(3, 1)]])
    with pytest.raises(DomainError, match="duplicate"):
        tree_from_words(P32, 1, [[()], [(9,), (9,)]])
    with pytest.raises(DomainError):
        tree_from_words(P32, 2, [[()], [(9,)]])  # missing a level
    with pytest.raises(DomainError):
        tree_from_words(P32, 1, [[(1,)], [(1, 1)]])  # bad level 0
    for level1 in ([(1,), (2, 3)], [("a",)], [(1.5,)], [(10,)]):
        with pytest.raises(DomainError):  # ragged, strings, floats, a bad label
            tree_from_words(P32, 1, [[()], level1])
    t = tree_from_words(P32, 2, [[()], [(9,), (3,)], [(3, 1), (9, 9)]])
    assert words(t, 1) == [(3,), (9,)]
    assert child_labels(t, 1, find(t, (9,))) == (9,)
    assert words(tree_from_json_dict(json.loads(t.to_canonical_bytes())), 2) == [
        (3, 1),
        (9, 9),
    ]


def test_tree_format_rejected():
    with pytest.raises(DomainError, match="format"):
        tree_from_json_dict({"format": "nope"})
