"""End-to-end acceptance checks, one per numbered criterion, each printing
a single summary line with its measured values, elapsed time and PASS/FAIL."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import (
    f_point,
    label_matrix,
    pi_finite,
    subtree,
    tilde,
    truncate,
    words,
)

from percoqs.analysis import (
    epsilon_table,
    estimate_dims,
    kappa,
    kappa_prime,
    level1_oracle,
    martingale_check,
    qs_ratio_scan,
    solve_t,
)
from percoqs.cli import main
from percoqs.globalmap import GeomConfig, f_global, g_batch
from percoqs.lattice import Params, label_offsets
from percoqs.percolation import derive_seed, sample_nonextinct, sample_tree
from percoqs.substitution import compute_flags

P7 = Params(m=3, d=2, p=0.7)


def _line(num: int, name: str, detail: str, elapsed: float, budget: float, ok: bool):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {num:2d} {name}: {detail}; "
        f"{elapsed:.1f}s < {budget:.0f}s: {verdict}"
    )
    assert ok and elapsed < budget


def test_criterion_01_threshold_table():
    t0 = time.perf_counter()
    want = {(3, 2): 0.00389, (4, 2): 0.00556, (5, 2): 0.00608,
            (3, 3): 0.00157, (4, 3): 0.00240}
    worst = max(abs(r.epsilon - want[(r.m, r.d)]) for r in epsilon_table())
    _line(1, "threshold table", f"max deviation {worst:.2e} <= 1e-5",
          time.perf_counter() - t0, 1.0, worst <= 1e-5)


def test_criterion_02_enumeration_oracle():
    t0 = time.perf_counter()
    worst = {3: 0.0, 4: 0.0}
    elapsed = {}
    for m in (3, 4):
        start = time.perf_counter()
        for p in (0.3, 0.5, 0.7):
            for k in (1, 2):
                pr = Params(m=m, d=2, p=p, k=k)
                for s in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
                    closed = p * m ** (2 - s) * kappa(pr, s)
                    worst[m] = max(worst[m], abs(level1_oracle(pr, s) - closed))
        elapsed[m] = time.perf_counter() - start
    ok = (worst[3] <= 1e-12 and worst[4] <= 1e-12
          and elapsed[3] < 10.0 and elapsed[4] < 300.0)
    _line(2, "enumeration oracle",
          f"max |diff| {max(worst.values()):.2e} <= 1e-12 "
          f"(M^d=9: {elapsed[3]:.2f}s, M^d=16: {elapsed[4]:.2f}s)",
          time.perf_counter() - t0, 310.0, ok)


def test_criterion_03_solver_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_res = 0.0
    ok = True
    for _ in range(50):
        m = int(rng.choice((3, 4, 5)))
        d = int(rng.choice((2, 3)))
        k = int(rng.integers(1, 4))
        nb = m**d - (m - 2) ** d
        # keep (1-p)^n_boundary above float underflow so the strict gap
        # t_upper < s_hausdorff stays resolvable
        p_max = 1.0 - 10.0 ** (-10.0 / nb)
        p = float(rng.uniform(m ** (-d) + 0.02, p_max))
        pr = Params(m=m, d=d, p=p, k=k)
        rep = solve_t(pr)
        worst_res = max(worst_res, rep.residual)
        lower = rep.s_hausdorff + math.log(kappa_prime(pr)) / math.log(m)
        ok &= rep.residual <= 1e-12
        ok &= 0.0 < rep.t_upper < rep.s_hausdorff
        ok &= rep.t_upper >= lower - 1e-12
    _line(3, "solver soundness",
          f"50 tuples, max residual {worst_res:.2e}, bounds hold",
          time.perf_counter() - t0, 5.0, ok)


def test_criterion_04_branching_mean():
    t0 = time.perf_counter()
    counts = np.empty((2000, 6), dtype=np.float64)
    for seed in range(2000):
        tree = sample_tree(P7, 5, seed)
        counts[seed] = [tree.count(n) for n in range(6)]
    worst_z = 0.0
    for n in range(1, 6):
        mean = counts[:, n].mean()
        stderr = counts[:, n].std(ddof=1) / math.sqrt(2000)
        worst_z = max(worst_z, abs(mean - 6.3**n) / stderr)
    _line(4, "branching mean",
          f"2000 seeds, n<=5, max |z| {worst_z:.2f} <= 3",
          time.perf_counter() - t0, 60.0, worst_z <= 3.0)


def test_criterion_05_martingale_property():
    t0 = time.perf_counter()
    tree, _ = sample_nonextinct(P7, 5, 0)
    ftree = compute_flags(tree)
    s = solve_t(P7).t_upper
    rep = martingale_check(ftree, s, 4, 10_000, derive_seed(0, "acceptance-martingale"))
    _line(5, "martingale property",
          f"s=t_upper, n=4, R=10^4: ratio {rep.ratio:.4f}, z {rep.zscore:+.2f}",
          time.perf_counter() - t0, 120.0, abs(rep.zscore) <= 3.0)


def test_criterion_06_dimension_drop():
    t0 = time.perf_counter()
    grid = np.round(np.arange(1.3, 1.9 + 1e-9, 0.05), 12)
    fit = estimate_dims(P7, trials=200, depth=6, s_grid=grid, seed=0)
    ok = (fit.converged
          and abs(fit.s_hat - 1.675) <= 0.05
          and fit.t_hat < fit.s_hat
          and abs(fit.t_hat - fit.t_upper) <= 0.05)
    _line(6, "dimension drop",
          f"s_hat {fit.s_hat:.4f} (target 1.675+-0.05), t_hat {fit.t_hat:.4f} "
          f"< s_hat, |t_hat - {fit.t_upper:.4f}| <= 0.05",
          time.perf_counter() - t0, 600.0, ok)


def test_criterion_07_quasisymmetry_scan():
    t0 = time.perf_counter()
    c8 = 0.0
    c5 = 0.0
    for i in range(20):
        tree, _ = sample_nonextinct(P7, 8, derive_seed(0, "acceptance-qs", i))
        ftree = compute_flags(tree)
        scan8 = qs_ratio_scan(ftree, 8, 10_000, derive_seed(1, "scan8", i),
                              exact_pairs=0)
        short = compute_flags(truncate(tree, 5))
        scan5 = qs_ratio_scan(short, 5, 10_000, derive_seed(1, "scan5", i),
                              exact_pairs=0)
        c8 = max(c8, scan8.c_emp)
        c5 = max(c5, scan5.c_emp)
        del tree, ftree, short
    ok = c8 <= 81.0 and c8 <= 1.5 * c5
    _line(7, "quasisymmetry scan",
          f"20 trees: C_emp(8) {c8:.3f} <= 81 and <= 1.5 * C_emp(5) {c5:.3f}",
          time.perf_counter() - t0, 300.0, ok)


def _int_corners(tree, level):
    """Integer lattice corners (coordinates * M^level) of the level's
    survivors."""
    pr = tree.params
    offs = label_offsets(pr.m, pr.d)[0]
    chain = [None] * (level + 1)
    chain[level] = np.arange(tree.count(level))
    for n in range(level, 0, -1):
        chain[n - 1] = tree.parents[n][chain[n]]
    out = np.zeros((tree.count(level), pr.d), dtype=np.int64)
    for n in range(1, level + 1):
        out = out * pr.m + offs[tree.labels[n][chain[n]] - 1]
    return out


def _tilde_codes(ftree):
    """Per-level integer codes of every survivor's rewritten word, in the
    zeroless base M^d + 1 (a bijective numeration, so distinct words get
    distinct codes even across lengths)."""
    tree = ftree.tree
    pr = ftree.params
    base = pr.alphabet_size + 1
    longest = tree.depth * (1 + pr.k)
    assert base**longest < 2**64  # uint64 cannot wrap below this
    b = np.uint64(base)
    bk = np.uint64(base**pr.k)
    eta_code = np.uint64(
        sum(e * base ** (pr.k - 1 - j) for j, e in enumerate(pr.eta))
    )
    codes = [np.zeros(1, dtype=np.uint64)]
    for n in range(tree.depth):
        par = tree.parents[n + 1]
        shifted = np.where(
            ftree.flags[n][par], codes[n][par] * bk + eta_code, codes[n][par]
        )
        codes.append(shifted * b + tree.labels[n + 1].astype(np.uint64))
    return codes


def test_criterion_08_structural_invariants():
    t0 = time.perf_counter()
    specs = (
        [(Params(m=3, d=2, p=0.7), 4 + i % 4) for i in range(20)]
        + [(Params(m=4, d=2, p=0.5, k=2, eta=(16, 13)), 4)] * 10
        + [(Params(m=5, d=2, p=0.4), 3)] * 10
        + [(Params(m=3, d=3, p=0.35), 3)] * 10
    )
    rng = np.random.default_rng(1)
    injective = True
    splitting = True
    faces_touch = True
    pairs_checked = 0
    for i, (pr, depth) in enumerate(specs):
        tree, _ = sample_nonextinct(pr, depth, derive_seed(0, "acceptance-inv", i))
        ftree = compute_flags(tree)
        codes = _tilde_codes(ftree)
        for n in range(depth + 1):
            injective &= np.unique(codes[n]).size == codes[n].size
        base = pr.alphabet_size + 1

        deepest = label_matrix(tree, depth)
        for _ in range(5):
            idx = int(rng.integers(0, tree.count(depth)))
            w = tuple(deepest[idx].tolist())
            # the vectorized codes match the one-word rewriter
            tw = tilde(ftree, w).labels
            horner = 0
            for lab in tw:
                horner = horner * base + lab
            injective &= int(codes[depth][idx]) == horner
            # prefix-suffix conjugation, exact
            cut = int(rng.integers(1, depth))
            sub = compute_flags(subtree(tree, w[:cut]))
            glued = tilde(ftree, w[:cut]).labels + tilde(sub, w[cut:]).labels
            splitting &= glued == tw

        # face-adjacent survivors keep touching image boxes
        level = min(3, depth)
        level_words = words(tree, level)
        coords = _int_corners(tree, level)
        lookup = {tuple(c): j for j, c in enumerate(coords.tolist())}
        found = 0
        for j, c in enumerate(coords.tolist()):
            if found >= 5:
                break
            for axis in range(pr.d):
                nb = list(c)
                nb[axis] += 1
                other = lookup.get(tuple(nb))
                if other is None:
                    continue
                found += 1
                pairs_checked += 1
                boxes = []
                for idx2 in (j, other):
                    tw = tilde(ftree, level_words[idx2]).labels
                    lo = pi_finite(pr, tw).as_fractions()
                    side = Fraction(1, pr.m ** len(tw))
                    boxes.append((lo, side))
                (alo, aside), (blo, bside) = boxes
                for x, y in zip(alo, blo):
                    gap = max(x - (y + bside), y - (x + aside))
                    faces_touch &= gap <= 0
        del tree, ftree, codes
    ok = injective and splitting and faces_touch and pairs_checked >= 100
    _line(8, "structural invariants",
          f"50 trees: injective {injective}, splitting {splitting}, "
          f"{pairs_checked} adjacent pairs touch {faces_touch}",
          time.perf_counter() - t0, 120.0, ok)


def test_criterion_09_global_map():
    t0 = time.perf_counter()
    cfg = GeomConfig(P7)
    rng = np.random.default_rng(2)

    # g fixes the cube boundary exactly, 10^4 points
    pts = rng.random((10_000, 2))
    pts[np.arange(10_000), rng.integers(0, 2, 10_000)] = np.where(
        rng.random(10_000) < 0.5, 0.0, 1.0
    )
    g_exact = np.array_equal(g_batch(cfg, pts), pts)

    # branch agreement on the core boundary
    core = 0.5 + (rng.random((2_000, 2)) - 0.5) * cfg.core_ratio
    sign = rng.integers(0, 2, 2_000) * 2.0 - 1.0
    core[np.arange(2_000), rng.integers(0, 2, 2_000)] = 0.5 + sign * cfg.inner_half
    inner = cfg.eta_corner + cfg.eta_scale * core
    branch_err = float(np.abs(g_batch(cfg, core) - inner).max())

    # two-point distortion bracket over 10^5 pairs
    pairs = rng.random((100_000, 2, 2))
    num = np.abs(g_batch(cfg, pairs[:, 0]) - g_batch(cfg, pairs[:, 1])).max(axis=1)
    den = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1)
    keep = den > 0
    ratios = num[keep] / den[keep]
    bracket = float(ratios.max() / ratios.min())

    # f_global: boundary identity (500 points x 20 trees) and corner match
    f_exact = True
    corner_err = 0.0
    edge_t = np.linspace(0.0, 1.0, 125)
    edges = np.concatenate([
        np.column_stack([edge_t, np.zeros(125)]),
        np.column_stack([edge_t, np.ones(125)]),
        np.column_stack([np.zeros(125), edge_t]),
        np.column_stack([np.ones(125), edge_t]),
    ])
    for i in range(20):
        tree, _ = sample_nonextinct(P7, 4, derive_seed(0, "acceptance-global", i))
        ftree = compute_flags(tree)
        f_exact &= np.array_equal(f_global(ftree, edges, 4), edges)
        for level in range(1, 5):
            count = tree.count(level)
            level_words = words(tree, level)
            pick = rng.integers(0, count, size=min(50, count))
            picked = [level_words[j] for j in pick]
            us = np.array([pi_finite(P7, w).to_floats() for w in picked])
            want = np.array([f_point(ftree, w).to_floats() for w in picked])
            diff = f_global(ftree, us, level) - want
            corner_err = max(corner_err, float(np.abs(diff).max()))
    ok = (g_exact and f_exact and branch_err <= 1e-12
          and bracket <= 27.0 and corner_err <= 1e-9)
    _line(9, "global map",
          f"boundary exact {g_exact and f_exact}, branch err {branch_err:.1e}, "
          f"bracket {bracket:.2f} <= 27, corner err {corner_err:.1e}",
          time.perf_counter() - t0, 120.0, ok)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    trees = []
    reports = []
    for run in range(3):
        tf = tmp_path / f"tree-{run}.json"
        rc = main(["sample", "--depth", "5", "--seed", "0", "--nonextinct",
                   "--out", str(tf)])
        assert rc == 0
        trees.append(tf.read_bytes())
        rf = tmp_path / f"report-{run}.json"
        rc = main(["check", "qs", "--depth", "3", "--trees", "2",
                   "--trials", "200", "--out", str(rf)])
        assert rc == 0
        reports.append(rf.read_bytes())
    ok = trees[0] == trees[1] == trees[2] and reports[0] == reports[1] == reports[2]
    _line(10, "determinism",
          "tree and report bytes identical across three reruns",
          time.perf_counter() - t0, 120.0, ok)
