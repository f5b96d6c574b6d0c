"""Global extension: the core homeomorphism g and the address-following
float map, cross-checked against the exact corner map and against the
one-point Fraction path of the oracle."""

from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import (
    f_global as f_global_point,
    f_point,
    g_batch_reference,
    madic_address,
    pi_finite,
    tree_from_words,
    words,
)

from percoqs.errors import DomainError, PreconditionError
from percoqs.globalmap import GeomConfig, f_global, g_batch
from percoqs.lattice import Params, label_offsets
from percoqs.percolation import sample_nonextinct, sample_tree
from percoqs.substitution import compute_flags

P32 = Params(m=3, d=2, p=0.7)
P42 = Params(m=4, d=2, p=0.7)
P_NEAR_ONE = Params(m=3, d=2, p=1.0 - 2.0**-53)
CFG3 = GeomConfig(P32)
CFG4 = GeomConfig(P42)


def g(cfg, u):
    """g at a single point (shape (d,))."""
    return g_batch(cfg, np.asarray(u, dtype=np.float64)[None, :])[0]


# --- geometry config ---------------------------------------------------------


def test_geom_config_derived_fields():
    assert CFG3.core_ratio == pytest.approx(1 / 3)
    assert CFG3.inner_half == pytest.approx(1 / 6)
    assert CFG3.eta_scale == pytest.approx(1 / 3)
    assert np.allclose(CFG3.eta_corner, [1 / 3, 1 / 3])
    cfg = GeomConfig(Params(m=4, d=2, p=0.5, k=2, eta=(16, 13)))
    assert cfg.eta_scale == pytest.approx(1 / 16)
    assert np.allclose(cfg.eta_corner, [0.5 + 1 / 16, 0.5 + 1 / 16])


# --- g -------------------------------------------------------------------------


def test_g_boundary_identity_exact():
    rng = np.random.default_rng(0)
    pts = rng.random((500, 2))
    axis = rng.integers(0, 2, 500)
    pts[np.arange(500), axis] = np.where(rng.random(500) < 0.5, 0.0, 1.0)
    assert np.array_equal(g_batch(CFG3, pts), pts)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(g_batch(CFG4, corners), corners)


def test_g_center_to_eta_center():
    u = np.array([0.5, 0.5])
    assert np.allclose(g(CFG4, u), [0.625, 0.625], atol=1e-15)
    cfg13 = GeomConfig(Params(m=4, d=2, p=0.5, eta=(13,)))
    assert np.allclose(g(cfg13, u), [0.375, 0.375], atol=1e-15)
    # for M=3 the insertion cell is concentric with the cube
    assert np.allclose(g(CFG3, u), [0.5, 0.5], atol=1e-15)


def test_g_core_maps_onto_core_of_eta_box():
    # corners of I map to corners of the concentric shrunk insertion box
    for cfg, m in ((CFG3, 3), (CFG4, 4)):
        lo = 0.5 - cfg.inner_half
        hi = 0.5 + cfg.inner_half
        for corner in ([lo, lo], [lo, hi], [hi, lo], [hi, hi]):
            expect = cfg.eta_corner + cfg.eta_scale * np.asarray(corner)
            assert np.allclose(g(cfg, corner), expect, atol=1e-15)


def test_g_branch_agreement_on_core_boundary():
    rng = np.random.default_rng(1)
    for cfg in (CFG3, CFG4):
        free = rng.uniform(-cfg.inner_half, cfg.inner_half, size=(400, 2)) + 0.5
        axis = rng.integers(0, 2, 400)
        sign = rng.integers(0, 2, 400) * 2.0 - 1.0
        pts = free
        pts[np.arange(400), axis] = 0.5 + sign * cfg.inner_half
        inner_formula = cfg.eta_corner + cfg.eta_scale * pts
        assert np.max(np.abs(g_batch(cfg, pts) - inner_formula)) <= 1e-12


def test_g_frozen_values():
    # on the core boundary below center
    assert np.allclose(g(CFG3, [0.5, 1 / 3]), [0.5, 4 / 9], atol=1e-15)
    # halfway between the core face and the cube face
    assert np.allclose(g(CFG3, [0.5, 1 / 6]), [0.5, 2 / 9], atol=1e-15)


def test_g_stays_inside_and_injective_probe():
    side = np.linspace(0.0, 1.0, 61)
    gx, gy = np.meshgrid(side, side)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    img = g_batch(CFG3, grid)
    assert img.min() >= 0.0 and img.max() <= 1.0
    d_img = np.abs(img[:, None, :] - img[None, :, :]).max(axis=2)
    d_src = np.abs(grid[:, None, :] - grid[None, :, :]).max(axis=2)
    collide = (d_img < 1e-9) & (d_src > 1e-7)
    assert not collide.any()


def test_g_bilipschitz_bracket():
    rng = np.random.default_rng(7)
    for n in (5000, 20000):
        pairs = rng.random((n, 2, 2))
        gu = g_batch(CFG3, pairs[:, 0])
        gv = g_batch(CFG3, pairs[:, 1])
        num = np.abs(gu - gv).max(axis=1)
        den = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1)
        keep = den > 0
        ratios = num[keep] / den[keep]
        assert ratios.max() / ratios.min() <= 3 ** (P32.k + 2)


def test_g_radial_rays():
    # x -> (composed homothety)(x) is affine with factor lam; its fixed
    # point phi is collinear with every (x, image) pair, and g preserves
    # order along each ray
    cfg = CFG4
    lam = cfg.eta_scale * cfg.core_ratio
    a = cfg.eta_corner + cfg.eta_scale * 0.5 * (1.0 - cfg.core_ratio)
    phi = a / (1.0 - lam)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.random(2)
        x[rng.integers(0, 2)] = float(rng.integers(0, 2))  # boundary point
        gx = a + lam * x
        cross = (gx[0] - phi[0]) * (x[1] - phi[1]) - (gx[1] - phi[1]) * (x[0] - phi[0])
        assert abs(cross) <= 1e-12
        # walk the ray from the boundary to the core: r decreases, t grows
        ts = np.linspace(0.0, 1.0, 9)
        ray = (1 - ts)[:, None] * x + ts[:, None] * (0.5 + cfg.core_ratio * (x - 0.5))
        img = g_batch(cfg, ray)
        seg = a + lam * x - x  # direction from x to its composed image
        params = (img - x) @ seg / (seg @ seg)
        assert np.all(np.diff(params) > 0)
        assert params[0] == pytest.approx(0.0, abs=1e-12)
        assert params[-1] == pytest.approx(1.0, abs=1e-12)


def test_g_outside_cube_rejected():
    with pytest.raises(DomainError):
        g(CFG3, [1.2, 0.5])
    with pytest.raises(DomainError):
        g_batch(CFG3, np.array([[0.5, -0.1]]))
    # NaN fails every comparison, so it must not slip through the check
    with pytest.raises(DomainError):
        g_batch(CFG3, np.array([[np.nan, 0.5]]))
    with pytest.raises(DomainError):
        g_batch(CFG3, np.array([[0.25, 0.5], [0.5, np.nan]]))


def test_empty_point_arrays_keep_their_shape():
    ft = compute_flags(sample_tree(P32, 3, 0))
    empty = np.empty((0, 2))
    assert g_batch(CFG3, empty).shape == (0, 2)
    assert f_global(ft, empty, 3).shape == (0, 2)


def _assert_same_bits(cfg, pts):
    got = g_batch(cfg, pts)
    assert got.tobytes() == g_batch_reference(cfg, pts).tobytes()


@pytest.mark.parametrize("m, d, k", [(3, 2, 1), (4, 2, 1), (5, 2, 2), (3, 3, 1),
                                     (4, 3, 2)])
def test_g_batch_matches_reference_bit_for_bit(m, d, k):
    cfg = GeomConfig(Params(m=m, d=d, p=0.5, k=k))
    rng = np.random.default_rng(1000 * m + 10 * d + k)
    _assert_same_bits(cfg, rng.random((100_000, d)))

    # edge rows, exactly on a face, and the centre, where r = 0; cubing
    # gives the other coordinates bits below 2^-53, which the outer
    # formula would not carry through 0.5 + (u - 0.5)
    edge = rng.random((500, d)) ** 3
    edge[np.arange(500), rng.integers(0, d, 500)] = rng.integers(0, 2, 500)
    centre = np.full((3, d), 0.5)
    _assert_same_bits(cfg, np.concatenate([edge, centre, np.eye(d), 1.0 - np.eye(d)]))

    # exactly on the core shell, r == inner_half, and one ulp either side;
    # 0.5 +- inner_half itself may round off the shell, so search next to it
    h = cfg.inner_half
    near = np.array([0.5 - h, 0.5 + h])
    on = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, 1.0)])
    on = on[np.abs(on - 0.5) == h]
    assert on.size
    shell = 0.5 + (rng.random((500, d)) - 0.5) * cfg.core_ratio
    face = np.arange(500) % d
    shell[np.arange(500), face] = on[np.arange(500) % on.size]
    assert np.array_equal(np.abs(shell - 0.5).max(axis=1), np.full(500, h))
    _assert_same_bits(cfg, shell)
    _assert_same_bits(cfg, np.nextafter(shell, 0.5))
    _assert_same_bits(cfg, np.nextafter(shell, np.where(shell < 0.5, 0.0, 1.0)))

    # within the 1e-12 tolerance outside the cube, clipped onto the boundary
    out = rng.random((500, d))
    slack = 1e-12 * rng.random(500)
    out[np.arange(500), face] = np.where(face % 2, -slack, 1.0 + slack)
    out[::2, 0] = np.where(np.arange(250) % 2, -1e-12, 1.0 + 1e-12)
    _assert_same_bits(cfg, out)

    # subnormals and the smallest normals, next to the boundary
    tiny = rng.random((500, d))
    tiny[:, 0] = np.float64(5e-324) * rng.integers(1, 2**40, 500)
    tiny[1::5, 0] *= -1.0  # inside the tolerance, clipped to 0
    tiny[::3, -1] = 1.0 - np.float64(2.0**-53) * rng.integers(1, 4, 167)
    _assert_same_bits(cfg, tiny)


# --- addresses -----------------------------------------------------------------


def test_madic_address_examples():
    word, residual = madic_address(P32, (Fraction(1, 3), Fraction(1, 3)), 1)
    assert word == (1,) and residual == (1, 1)  # tie resolves downward
    word, residual = madic_address(P32, (Fraction(1, 3), Fraction(1, 3)), 2)
    assert word == (1, 8) and residual == (1, 1)
    word, residual = madic_address(P32, (0.4, 0.8), 1)
    assert word == (5,)  # offsets (1, 2)
    with pytest.raises(DomainError):
        madic_address(P32, (1.1, 0.0), 1)
    with pytest.raises(DomainError):
        madic_address(P32, (0.5, 0.5), -1)


def test_madic_address_reconstructs_exactly():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = tuple(Fraction(float(c)) for c in rng.random(2))
        for digits in (1, 3, 6):
            word, residual = madic_address(P32, u, digits)
            corner = pi_finite(P32, word).as_fractions()
            scale = Fraction(1, 3**digits)
            rebuilt = tuple(c + scale * r for c, r in zip(corner, residual))
            assert rebuilt == u
            assert all(0 <= r <= 1 for r in residual)


# --- f_global -------------------------------------------------------------------


def test_f_global_resolution_bounds():
    ft = compute_flags(sample_tree(P32, 3, 0))
    with pytest.raises(PreconditionError):
        f_global(ft, np.array([[0.5, 0.5]]), 0)
    with pytest.raises(PreconditionError):
        f_global(ft, np.array([[0.5, 0.5]]), 4)
    with pytest.raises(DomainError):
        f_global(ft, np.array([0.5, 0.5]), 3)  # one point is a (1, d) array
    with pytest.raises(DomainError):
        f_global(ft, np.array([[0.5, 1.1]]), 3)
    with pytest.raises(DomainError):
        f_global(ft, np.array([[np.nan, 0.5]]), 3)


def test_f_global_boundary_identity_exact():
    ft = compute_flags(sample_tree(P32, 3, 2))
    for u in ([0.0, 0.37], [1.0, 0.62], [0.25, 1.0], [0.8, 0.0], [1.0, 1.0]):
        uu = np.array([u])
        assert np.array_equal(f_global(ft, uu, 3), uu)


def test_f_global_identity_near_p_one():
    ft = compute_flags(sample_tree(P_NEAR_ONE, 3, 3))
    rng = np.random.default_rng(8)
    for u in rng.random((50, 2)):
        assert np.array_equal(f_global(ft, u[None, :], 3), u[None, :])


def test_f_global_matches_f_point_on_corners():
    tree = sample_tree(P32, 4, 9)
    ft = compute_flags(tree)
    rng = np.random.default_rng(9)
    for level in range(1, 5):
        ws = words(tree, level)
        for i in rng.integers(0, len(ws), size=20):
            w = ws[i]
            u = np.array(pi_finite(P32, w).to_floats())
            expect = np.array(f_point(ft, w).to_floats())
            assert np.array_equal(f_global(ft, u[None, :], level)[0], expect)


ORACLE_PARAMS = (
    Params(m=3, d=2, p=0.4),
    Params(m=4, d=2, p=0.4, k=2, eta=(16, 13)),
    Params(m=3, d=3, p=0.3),
    Params(m=5, d=2, p=0.3),
)


def _oracle_trees(params):
    """Two sampled depth-4 trees, plus hand trees whose flagged nodes send
    points through g: a root whose only child is the interior cell
    eta[0] and, at M=3, d=2, the trees of the test_f_global_flagged_*
    tests."""
    trees = [sample_nonextinct(params, 4, seed)[0] for seed in (0, 1)]
    trees.append(tree_from_words(params, 1, [[()], [(params.eta[0],)]]))
    if params == P32:
        trees.append(tree_from_words(P32, 2, [[()], [(9,), (3,)], [(9, 9)]]))
    return [compute_flags(t) for t in trees]


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=lambda p: f"M{p.m}d{p.d}K{p.k}")
def test_f_global_matches_oracle_bit_for_bit(params):
    rng = np.random.default_rng(13)
    d = params.d
    for ft in _oracle_trees(params):
        for res in range(1, ft.depth + 1):
            pts = [rng.random((60, d))]
            if params.m % 2 == 0:
                # k / M^res is a double on a grid face only for even M:
                # these rows take the tie rule, some in every coordinate
                grid = rng.integers(1, params.m**res, size=(60, d)) / params.m**res
                mixed = np.where(rng.random((60, d)) < 0.5, grid, rng.random((60, d)))
                pts += [grid, mixed]
            edge = rng.random((6, d))
            edge[np.arange(6), rng.integers(0, d, 6)] = [0.0, 1.0, 0.0, 1.0, -1e-13, 1 + 1e-13]
            pts.append(edge)
            pts = np.concatenate(pts)
            want = np.array([f_global_point(ft, u, res) for u in pts])
            assert np.array_equal(f_global(ft, pts, res), want), (res, ft.tree.seed)
        assert f_global(ft, np.empty((0, d)), 1).shape == (0, d)


def test_f_global_tie_rule_matches_oracle():
    # At M=4 the face rows above are exact in binary, so both cells of a
    # tie give the same double.  At M=6 the face x=1/2 of the cell
    # [1/3, 1/2]^2 parts that surviving cell (rescaled, rounded once) from
    # a dead one (through g, rounded per operation), so a wrong tie rule
    # changes the last bit of some rows whose y uses all 53 bits.
    params = Params(m=6, d=2, p=0.5)
    only = int(label_offsets(6, 2)[1][np.ravel_multi_index((2, 2), (6, 6))])
    ft = compute_flags(tree_from_words(params, 1, [[()], [(only,)]]))
    rng = np.random.default_rng(14)
    face = np.column_stack([np.full(1000, 0.5), rng.uniform(1 / 3, 0.5, 1000)])
    pts = np.concatenate([face, face[:, ::-1]])
    want = np.array([f_global_point(ft, u, 1) for u in pts])
    assert np.array_equal(f_global(ft, pts, 1), want)


def test_f_global_dead_tail_pure_rescale():
    # root keeps a boundary child, so dead cells pass through unchanged
    t = tree_from_words(P32, 1, [[()], [(9,), (3,)]])
    ft = compute_flags(t)
    for u in ([0.1, 0.2], [0.9, 0.95], [0.77, 0.15]):
        uu = np.array([u])
        assert np.allclose(f_global(ft, uu, 1), uu, atol=0)


def test_f_global_flagged_root_applies_g():
    # every boundary child of the root died: the whole cube outside the
    # surviving interior cell is absorbed by one copy of g
    t = tree_from_words(P32, 1, [[()], [(9,)]])
    ft = compute_flags(t)
    rng = np.random.default_rng(10)
    for u in rng.random((40, 2)):
        uu = np.clip(u, 1e-6, 1 - 1e-6)
        got = f_global(ft, uu[None, :], 1)[0]
        want = g(CFG3, uu)
        assert np.allclose(got, want, atol=1e-15)


def test_f_global_flagged_interior_node_localizes_g():
    # node (9,) lost all boundary children; the dead remainder inside its
    # cell goes through g conjugated onto that cell
    t = tree_from_words(P32, 2, [[()], [(9,), (3,)], [(9, 9)]])
    ft = compute_flags(t)
    rng = np.random.default_rng(12)
    corner = np.array([1 / 3, 1 / 3])
    for z in rng.random((40, 2)):
        z = np.clip(z, 1e-6, 1 - 1e-6)
        if max(abs(z[0] - 0.5), abs(z[1] - 0.5)) < 1e-3:
            continue  # avoid the surviving child cell's corner region
        u = corner + z / 3.0
        word, _ = madic_address(P32, u, 2)
        if word[0] != 9 or word[1] == 9:
            got = f_global(ft, u[None, :], 2)[0]
            if word[0] == 9:
                want = corner + g(CFG3, (u - corner) * 3.0) / 3.0
                assert np.allclose(got, want, atol=1e-12)
