"""Boundary-death rewriting: flags, tilde, corner map, exact invariants."""

from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import (
    comparability_ratio,
    dist_max,
    f_point,
    find,
    pi_finite,
    subtree,
    tilde,
    tree_from_words,
    words,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _int_corners, _tilde_codes

from percoqs.errors import DomainError, PreconditionError
from percoqs.lattice import Params
from percoqs.percolation import derive_seed, sample_nonextinct, sample_tree
from percoqs.substitution import compute_flags, level_table, pair_ratios

P32 = Params(m=3, d=2, p=0.7)
P42 = Params(m=4, d=2, p=0.7)
P_NEAR_ONE = Params(m=3, d=2, p=1.0 - 2.0**-53)


def hand_tree_root_unflagged():
    # root keeps a boundary child (3), node (9,) keeps only the interior
    # child, node (3,) is childless
    t = tree_from_words(P32, 2, [[()], [(9,), (3,)], [(9, 9)]])
    return compute_flags(t)


def hand_tree_root_flagged():
    # root keeps only the interior child; (9,) keeps a boundary child
    t = tree_from_words(P32, 2, [[()], [(9,)], [(9, 3)]])
    return compute_flags(t)


# --- flags -----------------------------------------------------------------


def test_flags_hand_tree():
    ft = hand_tree_root_unflagged()
    t = ft.tree
    assert not ft.flags[0][0]  # root: boundary child 3 alive
    assert bool(ft.flags[1][find(t, (9,))])  # only interior child
    assert bool(ft.flags[1][find(t, (3,))])  # childless: vacuously flagged


def test_flags_root_flagged_tree():
    ft = hand_tree_root_flagged()
    assert bool(ft.flags[0][0])
    assert not ft.flags[1][find(ft.tree, (9,))]


def test_flags_full_tree_all_false():
    ft = compute_flags(sample_tree(P_NEAR_ONE, 3, 0))
    for k in range(3):
        assert not ft.flags[k].any()
        assert (ft.tilde_lengths[k] == k).all()


def test_all_boundary_dead_frequency():
    # every node below the depth is flagged iff its nb boundary children
    # all died, which independent siblings make a (1-p)^nb event
    pr = Params(m=3, d=2, p=0.4)
    q = (1.0 - pr.p) ** pr.n_boundary
    nodes = flagged = 0
    for i in range(40):
        ft = compute_flags(sample_tree(pr, 7, derive_seed(0, "boundary-dead", i)))
        nodes += sum(f.size for f in ft.flags)
        flagged += sum(int(f.sum()) for f in ft.flags)
    z = (flagged - nodes * q) / np.sqrt(nodes * q * (1.0 - q))
    assert nodes > 100_000 and abs(z) <= 4.0, (nodes, flagged, z)


def test_flags_need_child_level():
    with pytest.raises(PreconditionError):
        compute_flags(sample_tree(P32, 0, 0))


def test_tilde_lengths_match_tilde():
    tree = sample_tree(P32, 5, 3)
    ft = compute_flags(tree)
    for level in (2, 4, 5):
        for i, w in enumerate(words(tree, level)):
            assert ft.tilde_lengths[level][i] == len(tilde(ft, w))


# --- tilde -----------------------------------------------------------------


def test_tilde_examples():
    ft = hand_tree_root_unflagged()
    tw = tilde(ft, (9, 3))
    assert tw.labels == (9, 9, 3) and tw.insertions == (2,)
    assert len(tw) == 3

    ft2 = hand_tree_root_flagged()
    tw2 = tilde(ft2, (9, 3))
    assert tw2.labels == (9, 9, 3) and tw2.insertions == (1,)

    assert tilde(ft, ()).labels == ()
    assert tilde(ft, (9,)).labels == (9,)
    assert tilde(ft2, (9,)).labels == (9, 9)


def test_tilde_single_pass_not_iterated():
    # insertion blocks are never re-scanned: two flagged prefixes insert
    # exactly twice, K letters each
    pr = Params(m=3, d=2, p=0.7, k=2, eta=(9, 9))
    t = tree_from_words(pr, 2, [[()], [(9,)], [(9, 9)]])
    ft = compute_flags(t)
    assert bool(ft.flags[0][0]) and bool(ft.flags[1][0])
    tw = tilde(ft, (9, 9))
    assert tw.labels == (9, 9, 9, 9, 9, 9) and tw.insertions == (1, 2)


def test_tilde_preconditions():
    ft = hand_tree_root_unflagged()
    with pytest.raises(PreconditionError, match="depth"):
        tilde(ft, (9, 9, 9))
    with pytest.raises(PreconditionError, match="survive"):
        tilde(ft, (1, 1))  # prefix (1,) dead
    # the final letter may be dead, only proper prefixes must survive
    assert tilde(ft, (9, 1)).labels == (9, 9, 1)
    with pytest.raises(DomainError):
        tilde(ft, (10,))


# --- f_point ---------------------------------------------------------------


def test_f_point_hand_values():
    # insertion after the first letter: (9,9) -> (9,9,9)
    ft = hand_tree_root_unflagged()
    assert f_point(ft, (9, 9)).as_fractions() == (
        Fraction(13, 27),
        Fraction(13, 27),
    )
    # insertion before the first letter: (9,3) -> (9,9,3)
    ft2 = hand_tree_root_flagged()
    assert f_point(ft2, (9, 3)).as_fractions() == (
        Fraction(12, 27),
        Fraction(14, 27),
    )
    assert f_point(ft, ()) == pi_finite(P32, ())


def test_f_point_identity_without_flags():
    ft = compute_flags(sample_tree(P_NEAR_ONE, 3, 1))
    for w in words(ft.tree, 3)[:30]:
        assert f_point(ft, w) == pi_finite(P32, w)


def test_f_point_needs_survival():
    ft = hand_tree_root_unflagged()
    with pytest.raises(PreconditionError):
        f_point(ft, (9, 1))  # tilde fine, corner image undefined


# --- splitting identity -----------------------------------------------------


def test_splitting_identity_on_sampled_tree():
    tree = sample_tree(P32, 5, 13)
    ft = compute_flags(tree)
    checked = 0
    for plen in (1, 2, 3):
        for head in words(tree, plen)[:4]:
            sub = compute_flags(subtree(tree, head))
            t_head = tilde(ft, head).labels
            for klen in range(0, 5 - plen + 1):
                for tail in words(sub.tree, klen)[:6]:
                    whole = tilde(ft, head + tail).labels
                    assert whole == t_head + tilde(sub, tail).labels
                    checked += 1
    assert checked > 100


# --- injectivity and lengths -------------------------------------------------


def test_injectivity_and_length_bounds():
    pr = Params(m=3, d=2, p=0.5)
    for seed in range(5):
        tree, ft = None, None
        tree = sample_tree(pr, 5, seed)
        if tree.count(5) == 0:
            continue
        ft = compute_flags(tree)
        for level in (3, 5):
            seen = set()
            for w in words(tree, level):
                tw = tilde(ft, w).labels
                assert level <= len(tw) <= 2 * level
                seen.add(tw)
            assert len(seen) == tree.count(level)


# --- properties over random parameters -----------------------------------------


@st.composite
def _flagged_trees(draw):
    """A non-extinct sampled tree at random (M, d, K, eta, p) and depth
    2..5."""
    m = draw(st.sampled_from((3, 4, 5)))
    d = draw(st.sampled_from((1, 2, 3)))
    k = draw(st.integers(1, 3))
    a = m**d
    nb = a - (m - 2) ** d
    eta = (draw(st.integers(nb + 1, a)),)
    eta += tuple(draw(st.lists(st.integers(1, a), min_size=k - 1, max_size=k - 1)))
    # p makes the flag probability (1-p)^nb about q, so insertions
    # happen; a node keeps two to about six children on average, so a
    # level at depth <= 5 has at most ~10^5 candidate cells
    q = draw(st.floats(0.01, 0.4))
    pr = Params(m=m, d=d, p=max(1.0 - q ** (1.0 / nb), 2.0 / a), k=k, eta=eta)
    depth = draw(st.integers(2, 5))
    tree, _ = sample_nonextinct(pr, depth, draw(st.integers(0, 2**32)))
    return compute_flags(tree)


@settings(deadline=None, max_examples=40)
@given(ft=_flagged_trees())
def test_property_level_table_images_distinct(ft):
    for level in range(ft.depth + 1):
        _, img = level_table(ft, level)
        rows = {
            (t, *c) for t, c in zip(ft.tilde_lengths[level].tolist(), img.tolist())
        }
        assert len(rows) == ft.tree.count(level)


@settings(deadline=None, max_examples=40)
@given(ft=_flagged_trees(), data=st.data())
def test_property_splitting_identity(ft, data):
    tree = ft.tree
    w = words(tree, ft.depth)[data.draw(st.integers(0, tree.count(ft.depth) - 1))]
    whole = tilde(ft, w).labels
    for c in range(1, len(w)):
        sub = compute_flags(subtree(tree, w[:c]))
        assert tilde(ft, w[:c]).labels + tilde(sub, w[c:]).labels == whole


# --- level table ---------------------------------------------------------------


def _check_level_table(ft, with_codes=True):
    """The table, the label matrix and the vectorized test references
    against the one-word paths, for every survivor of every level."""
    tree, pr = ft.tree, ft.params
    base = pr.alphabet_size + 1
    codes = _tilde_codes(ft) if with_codes else None
    for level in range(ft.depth + 1):
        src, img = level_table(ft, level)
        assert src.shape == img.shape == (tree.count(level), pr.d)
        assert np.array_equal(src, _int_corners(tree, level))
        for i, w in enumerate(words(tree, level)):
            tw = tilde(ft, w).labels
            assert ft.tilde_lengths[level][i] == len(tw)
            assert tuple(src[i].tolist()) == pi_finite(pr, w).nums_at_level(level)
            assert tuple(img[i].tolist()) == pi_finite(pr, tw).nums_at_level(len(tw))
            if codes is not None:
                code, digits = int(codes[level][i]), []
                while code:
                    code, digit = divmod(code, base)
                    digits.append(digit)
                assert tuple(reversed(digits)) == tw
        # a subset of nodes, in any order, gets the rows of the full table
        pick = np.arange(tree.count(level))[::-2]
        sub_src, sub_img = level_table(ft, level, pick)
        assert np.array_equal(sub_src, src[pick]) and np.array_equal(sub_img, img[pick])
    return img


@pytest.mark.parametrize("pr, depth", [
    (Params(m=3, d=2, p=0.7), 5),
    (Params(m=4, d=2, p=0.5, k=2, eta=(16, 13)), 4),
    (Params(m=5, d=2, p=0.4), 3),
    (Params(m=3, d=3, p=0.35), 3),
], ids=["M3d2", "M4d2K2", "M5d2", "M3d3"])
def test_level_table_matches_one_word_paths(pr, depth):
    for i in range(2):
        tree, _ = sample_nonextinct(pr, depth, derive_seed(0, "level-table", i))
        img = _check_level_table(compute_flags(tree))
        assert img.dtype == np.int64


def _past_int64_tree():
    """Interior cells only, so every node is flagged and level 7 rewrites
    to length 7 + 3 * 7 = 28: 5^28 > 2^63 needs Python integers.  Past
    level 3 each node keeps two children, so the 16 words of level 7 meet
    at levels 3 to 6."""
    pr = Params(m=5, d=2, p=0.5, k=3, eta=(19, 2, 25))
    chain = (17, 18, 19, 20, 21, 22, 23)
    levels = [[chain[:k]] for k in range(4)]
    for k in range(4, 8):
        levels.append([w + (lab,) for w in levels[-1] for lab in (chain[k - 1], 25)])
    return compute_flags(tree_from_words(pr, 7, levels))


def test_level_table_object_numerators_past_int64():
    ft = _past_int64_tree()
    assert all(f.all() for f in ft.flags)
    assert ft.params.m ** int(ft.tilde_lengths[7][0]) >= 2**63
    img = _check_level_table(ft, with_codes=False)
    assert img.dtype == object


def test_level_table_long_eta_without_insertions():
    # 3^40 > 2^63: eta's corner needs Python integers even at level 1,
    # where no survivor carries an insertion; (9,) keeps only cell 9
    pr = Params(m=3, d=2, p=0.7, k=40)
    ft = compute_flags(tree_from_words(pr, 2, [[()], [(1,), (9,)], [(1, 2), (9, 9)]]))
    assert ft.tilde_lengths[1].tolist() == [1, 1]
    assert ft.tilde_lengths[2].tolist() == [2, 42]
    _check_level_table(ft, with_codes=False)
    assert level_table(ft, 1)[1].dtype == object


def _wide_then_short_tree():
    """Interior chain a rewrites to length 5 * 7 - 4 = 31 at level 7
    (5^31 > 2^63) and dies there; boundary chain b keeps length k, so
    level 8's longest rewritten length is 8."""
    pr = Params(m=5, d=2, p=0.5, k=4, eta=(19, 2, 25, 3))
    a, b = (17, 18, 19, 20, 21, 22, 23), (1,) * 8
    levels = [[()]] + [[a[:k], b[:k]] for k in range(1, 8)] + [[b]]
    return compute_flags(tree_from_words(pr, 8, levels))


@pytest.mark.parametrize("tree", ["past_int64", "K40", "wide_then_short"])
def test_level_table_subsets_index_their_level(tree):
    # a subset's rows, and their dtype, are the level's: object from the
    # first level that needs Python ints, on every deeper level
    if tree == "past_int64":
        ft = _past_int64_tree()
    elif tree == "K40":
        ft = compute_flags(sample_nonextinct(Params(m=3, d=2, p=0.5, k=40), 5, 0)[0])
    else:
        ft = _wide_then_short_tree()
        assert ft.tilde_lengths[7].max() == 31 and ft.tilde_lengths[8].max() == 8
    rng = np.random.default_rng(0)
    wide = False
    for level in range(ft.depth + 1):
        src, img = level_table(ft, level)
        wide |= ft.params.m ** max(ft.params.k, int(ft.tilde_lengths[level].max())) >= 2**63
        assert src.dtype == img.dtype == (object if wide else np.int64)
        for nodes in ([], [0], rng.integers(0, ft.tree.count(level), size=9)):
            sub_src, sub_img = level_table(ft, level, nodes)
            assert sub_src.dtype == sub_img.dtype == src.dtype
            assert np.array_equal(sub_src, src[nodes]) and np.array_equal(sub_img, img[nodes])


def _check_pair_ratios(ft):
    """pair_ratios against the one-word oracle on every distinct pair of
    the top level, half of them in reverse order."""
    ws = words(ft.tree, ft.depth)
    pairs = [
        (i, j) if (i + j) % 2 else (j, i)
        for i in range(len(ws)) for j in range(i + 1, len(ws))
    ]
    got = pair_ratios(ft, ft.depth, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert all(type(r) is Fraction for r in got)
    assert got == [comparability_ratio(ft, ws[i], ws[j]) for i, j in pairs]
    return got


@pytest.mark.parametrize("pr, depth", [
    (Params(m=3, d=2, p=0.7), 2),
    (Params(m=4, d=2, p=0.5, k=2, eta=(16, 13)), 2),
    (Params(m=5, d=2, p=0.4), 2),
    (Params(m=3, d=3, p=0.35), 2),
    # a node is flagged with probability 1/4, so rewritten lengths differ
    (Params(m=5, d=1, p=0.5, k=2), 4),
], ids=["M3d2", "M4d2K2", "M5d2", "M3d3", "M5d1K2"])
def test_pair_ratios_match_comparability_ratio(pr, depth):
    tree, _ = sample_nonextinct(pr, depth, derive_seed(0, "pair-ratios", depth))
    assert len(_check_pair_ratios(compute_flags(tree))) >= 2


def test_pair_ratios_past_int64():
    got = _check_pair_ratios(_past_int64_tree())
    assert len(got) == 16 * 15 // 2


# --- comparability -----------------------------------------------------------


def test_comparability_identity_without_flags():
    ft = compute_flags(sample_tree(P_NEAR_ONE, 3, 4))
    ws = words(ft.tree, 3)
    assert comparability_ratio(ft, ws[0], ws[5]) == 1
    assert comparability_ratio(ft, ws[2], ws[2][:2] + ws[3][2:]) == 1


def test_comparability_flagged_parent_siblings():
    # root flagged; the insertion block belongs to both suffixes, not to
    # the (empty) meet, so the image distance shrinks by exactly M^-K
    t = tree_from_words(P42, 1, [[()], [(13,), (14,)]])
    ft = compute_flags(t)
    assert comparability_ratio(ft, (13,), (14,)) == Fraction(1, 4)

    pr = Params(m=4, d=2, p=0.7, k=2, eta=(16, 16))
    t2 = tree_from_words(pr, 1, [[()], [(13,), (14,)]])
    assert comparability_ratio(compute_flags(t2), (13,), (14,)) == Fraction(1, 16)


def test_comparability_rejects_degenerate_input():
    ft = hand_tree_root_unflagged()
    with pytest.raises(DomainError):
        comparability_ratio(ft, (9,), (9, 9))
    with pytest.raises(DomainError):
        comparability_ratio(ft, (9,), (9,))
    with pytest.raises(DomainError, match="distinct"):
        pair_ratios(ft, 1, [[0, 1], [1, 1]])


def test_comparability_bracket_small_tree():
    pr = Params(m=3, d=2, p=0.5)
    tree = sample_tree(pr, 4, 23)
    ft = compute_flags(tree)
    ws = words(tree, 4)
    assert len(ws) >= 2
    lo, hi = Fraction(3) ** -4, Fraction(3) ** 4
    for i in range(0, len(ws) - 1, 2):
        r = comparability_ratio(ft, ws[i], ws[i + 1])
        assert lo <= r <= hi


# --- well-definedness at shared faces -----------------------------------------


def test_shared_face_bound_unflagged():
    # sibling cells (0,1) and (1,1) share the face x=1/3; tails approach
    # it from both sides through boundary-labelled children
    a, b = 2, 9  # offsets (0,1) and (1,1)
    amax, bmin = 7, 2  # offsets (2,1) and (0,1)
    for n_tail in (1, 2, 3, 4):
        i = (a,) + (amax,) * n_tail
        j = (b,) + (bmin,) * n_tail
        chains = [[()]] + [
            [i[:k], j[:k]] for k in range(1, n_tail + 2)
        ]
        t = tree_from_words(P32, n_tail + 1, chains)
        ft = compute_flags(t)
        d = dist_max(f_point(ft, i), f_point(ft, j))
        assert d == Fraction(1, 3 ** (n_tail + 1))
        assert d <= Fraction(1, 3 ** (n_tail - 1)) * Fraction(3)


def test_shared_face_bound_flagged_meet():
    # meet (16,) sits under a flagged root, so both images carry the same
    # inserted block; the bound rescales by the rewritten meet length
    meet = (16,)
    a, b = 5, 7  # offsets (1,0) and (2,0) sharing the face x=1/2
    amax, bmin = 9, 1  # offsets (3,0) and (0,0)
    for n_tail in (1, 2, 3):
        i = meet + (a,) + (amax,) * n_tail
        j = meet + (b,) + (bmin,) * n_tail
        chains = [[()], [meet]] + [
            [i[:k], j[:k]] for k in range(2, n_tail + 3)
        ]
        t = tree_from_words(P42, n_tail + 2, chains)
        ft = compute_flags(t)
        assert bool(ft.flags[0][0]) and not ft.flags[1][0]
        tmeet = tilde(ft, meet)
        assert tmeet.labels == (16, 16)
        d = dist_max(f_point(ft, i), f_point(ft, j))
        assert d == Fraction(1, 4 ** (n_tail + 3))
        n_shared = n_tail + 1  # letters past the meet
        bound = Fraction(1, 4 ** (n_shared - 1)) * Fraction(1, 4 ** len(tmeet)) * 4
        assert d <= bound
