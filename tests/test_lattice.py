"""Exact lattice geometry: labels, corners, metric, boxes."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from exact_oracle import ExactPoint, box_of_word, dist_max, pi_finite, word_meet
from hypothesis import given, settings
from hypothesis import strategies as st

from percoqs.errors import DomainError
from percoqs.lattice import (
    Params,
    boundary_label_count,
    corner_floats,
    corner_nums,
    default_eta,
    is_boundary_label,
    label_offsets,
    validate_label,
    validate_word,
)

P32 = Params(m=3, d=2, p=0.7)
P42 = Params(m=4, d=2, p=0.7)


def grid_params():
    return [Params(m=m, d=d, p=0.5) for m in (3, 4, 5) for d in (1, 2, 3)]


# --- labels -------------------------------------------------------------


@pytest.mark.parametrize("pr", grid_params(), ids=lambda p: f"M{p.m}d{p.d}")
def test_label_offset_bijection_exhaustive(pr):
    offsets, labels = label_offsets(pr.m, pr.d)
    seen = set()
    for lab in range(1, pr.alphabet_size + 1):
        off = tuple(offsets[lab - 1].tolist())
        assert labels[np.ravel_multi_index(off, (pr.m,) * pr.d)] == lab
        seen.add(off)
    assert len(seen) == pr.alphabet_size


@pytest.mark.parametrize("pr", grid_params(), ids=lambda p: f"M{p.m}d{p.d}")
def test_boundary_label_characterization(pr):
    offsets = label_offsets(pr.m, pr.d)[0]
    n_b = 0
    for lab in range(1, pr.alphabet_size + 1):
        off = offsets[lab - 1].tolist()
        touches = any(c in (0, pr.m - 1) for c in off)
        assert is_boundary_label(pr, lab) == touches
        n_b += touches
    assert n_b == pr.n_boundary == boundary_label_count(pr.m, pr.d)
    # boundary block first, interior block after
    assert all(is_boundary_label(pr, l) for l in range(1, n_b + 1))
    assert not any(
        is_boundary_label(pr, l) for l in range(n_b + 1, pr.alphabet_size + 1)
    )


def test_boundary_examples_frozen():
    assert is_boundary_label(P32, 8)
    assert not is_boundary_label(P32, 9)
    assert P42.n_boundary == 12
    assert is_boundary_label(P42, 12)
    assert not is_boundary_label(P42, 13)


def test_label_order_frozen_m3d2():
    # boundary offsets lexicographic, then interior lexicographic
    expected = [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2), (1, 1),
    ]
    assert [tuple(off) for off in label_offsets(3, 2)[0].tolist()] == expected


def test_label_out_of_range():
    with pytest.raises(DomainError):
        validate_label(P32, 0)
    with pytest.raises(DomainError):
        validate_label(P32, 10)
    with pytest.raises(DomainError):
        validate_word(P32, (1, 99))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_offset_table_and_default_eta_match_enumeration(m, d):
    # the reference: every offset in lexicographic order, split into the
    # boundary block and the interior block
    boundary, interior = [], []
    for off in product(range(m), repeat=d):
        (boundary if any(c in (0, m - 1) for c in off) else interior).append(off)
    table = boundary + interior
    offsets, labels = label_offsets(m, d)
    assert offsets.shape == (m**d, d) and labels.shape == (m**d,)
    assert [tuple(row) for row in offsets.tolist()] == table
    for lab, off in enumerate(table, start=1):
        assert labels[np.ravel_multi_index(off, (m,) * d)] == lab
    assert not offsets.flags.writeable and not labels.flags.writeable
    center = table.index((m // 2,) * d) + 1
    for k in (1, 3):
        assert default_eta(m, d, k) == (center,) * k
    word = tuple(range(1, m**d + 1, 2))
    want = [0] * d
    for lab in word:
        want = [n * m + o for n, o in zip(want, table[lab - 1])]
    assert corner_nums(Params(m=m, d=d, p=0.5), word) == tuple(want)


def test_default_eta():
    assert default_eta(3, 2) == (9,)
    assert default_eta(4, 2, 2) == (16, 16)
    center = np.ravel_multi_index((2, 2), (5, 5))
    assert label_offsets(5, 2)[1][center] == default_eta(5, 2)[0]


def test_params_validation():
    with pytest.raises(DomainError):
        Params(m=2, d=2, p=0.5)
    with pytest.raises(DomainError):
        Params(m=3, d=0, p=0.5)
    with pytest.raises(DomainError):
        Params(m=3, d=2, p=0.0)
    with pytest.raises(DomainError):
        Params(m=3, d=2, p=1.0)
    with pytest.raises(DomainError):
        Params(m=3, d=2, p=0.5, k=0)
    with pytest.raises(DomainError):
        Params(m=3, d=2, p=0.5, k=2, eta=(9,))  # wrong length
    with pytest.raises(DomainError):
        Params(m=3, d=2, p=0.5, eta=(1,))  # boundary first letter
    # later letters may be boundary cells
    assert Params(m=3, d=2, p=0.5, k=2, eta=(9, 1)).eta == (9, 1)


# --- words ---------------------------------------------------------------


def test_word_meet_and_prefix():
    assert word_meet((1, 2, 3), (1, 2, 4)) == (1, 2)
    assert word_meet((1, 2), (1, 2)) == (1, 2)
    assert word_meet((1,), (2,)) == ()


# --- corners -------------------------------------------------------------


def test_pi_finite_examples():
    assert pi_finite(P32, ()) == ExactPoint.origin(3, 2)
    assert pi_finite(P32, (9,)).as_fractions() == (Fraction(1, 3), Fraction(1, 3))
    assert pi_finite(P32, (9, 9)).as_fractions() == (Fraction(4, 9), Fraction(4, 9))


@settings(deadline=None, max_examples=200)
@given(
    data=st.data(),
    m=st.sampled_from([3, 4, 5]),
    d=st.integers(1, 3),
)
def test_pi_decomposition(data, m, d):
    pr = Params(m=m, d=d, p=0.5)
    labels = st.integers(1, pr.alphabet_size)
    i = tuple(data.draw(st.lists(labels, max_size=10)))
    j = tuple(data.draw(st.lists(labels, max_size=10)))
    whole = pi_finite(pr, i + j).as_fractions()
    head = pi_finite(pr, i).as_fractions()
    tail = pi_finite(pr, j).as_fractions()
    scale = Fraction(1, m ** len(i))
    assert whole == tuple(h + scale * t for h, t in zip(head, tail))


def test_distinct_words_distinct_corners_exhaustive():
    corners = {
        pi_finite(P32, w)
        for w in product(range(1, 10), repeat=3)
    }
    assert len(corners) == 9**3


@pytest.mark.parametrize("levels", [[0, 1, 7, 33], [0, 1, 7, 33, 34, 60]])
def test_corner_floats_correctly_rounded(levels):
    # 3^34 > 2^53: the second case needs exact integer division throughout
    rng = np.random.default_rng(7)
    nums = [[int(x) % (3**l + 1) for x in rng.integers(0, 2**62, 2)] for l in levels]
    got = corner_floats(3, np.array(nums, dtype=object), levels)
    want = [[float(Fraction(n, 3**l)) for n in row] for row, l in zip(nums, levels)]
    assert got.tolist() == want
    one = corner_floats(3, np.array(nums[:3], dtype=np.int64), 7)
    assert one.tolist() == [[float(Fraction(n, 3**7)) for n in row] for row in nums[:3]]


def test_exact_point_canonical():
    a = ExactPoint(3, 3, (12, 12))
    b = ExactPoint(3, 2, (4, 4))
    assert a == b and a.level == 2 and hash(a) == hash(b)
    assert ExactPoint(3, 2, (0, 9)).level == 0  # (0,1) reduces fully
    with pytest.raises(DomainError):
        ExactPoint(3, 1, (4, 0))  # numerator above m^level
    with pytest.raises(DomainError):
        ExactPoint(3, -1, (0,))


def test_exact_point_serialization_roundtrip():
    x = pi_finite(P32, (9, 3, 7))
    obj = x.to_json_dict()
    assert obj == {"level": 3, "num": [str(n) for n in x.nums]}
    assert ExactPoint.from_json_dict(3, obj) == x


def test_nums_at_level():
    x = ExactPoint(3, 1, (1, 2))
    assert x.nums_at_level(3) == (9, 18)
    with pytest.raises(DomainError):
        x.nums_at_level(0)


# --- metric --------------------------------------------------------------


def test_dist_max_examples():
    o = ExactPoint.origin(3, 2)
    assert dist_max(o, o) == 0
    assert dist_max(o, ExactPoint(3, 2, (3, 1))) == Fraction(1, 3)
    assert dist_max(
        ExactPoint(3, 2, (4, 4)), ExactPoint(3, 1, (1, 1))
    ) == Fraction(1, 9)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_dist_max_is_a_metric(data):
    words = st.lists(st.integers(1, 9), max_size=6).map(tuple)
    x = pi_finite(P32, data.draw(words))
    y = pi_finite(P32, data.draw(words))
    z = pi_finite(P32, data.draw(words))
    assert dist_max(x, y) == dist_max(y, x) >= 0
    assert (dist_max(x, y) == 0) == (x == y)
    assert dist_max(x, z) <= dist_max(x, y) + dist_max(y, z)


# --- boxes ---------------------------------------------------------------


def test_box_of_word_and_h_box():
    unit = box_of_word(P32, ())
    assert unit.side() == 1
    b = box_of_word(P32, (9,))
    assert b.corner.as_fractions() == (Fraction(1, 3), Fraction(1, 3))
    assert b.level == 1 and b.side() == Fraction(1, 3)
