"""Closed forms, root finders, exact partition sums and the Monte Carlo
checks, each pinned against independently computed values."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import tree_from_words
from test_substitution import _past_int64_tree

from percoqs.analysis import (
    EPSILON_TABLE_CASES,
    DimFit,
    DimReport,
    EpsilonReport,
    MartingaleReport,
    QsScan,
    _one_generation,
    epsilon_table,
    estimate_dims,
    kappa,
    kappa_prime,
    level1_oracle,
    martingale_check,
    qs_ratio_scan,
    report_json_bytes,
    solve_epsilon,
    solve_t,
    zero_slope,
)
from percoqs.errors import DomainError
from percoqs.lattice import Params
from percoqs.percolation import derive_seed, sample_nonextinct, sample_tree
from percoqs.substitution import compute_flags, pair_ratios

P_HALF = Params(m=3, d=2, p=0.5)
P_NEAR_ONE = Params(m=3, d=2, p=1.0 - 2.0**-53)

# root unflagged (boundary child 3 alive), node (9,) flagged
HAND = tree_from_words(P_HALF, 2, [[()], [(9,), (3,)], [(9, 9)]])


# --- closed forms ---------------------------------------------------------


def test_kappa_frozen_value():
    # 1 - (1/9)(2/3)(1/256) computed by hand
    assert kappa(P_HALF, 1.0) == pytest.approx(3455 / 3456, abs=1e-15)
    assert kappa(P_HALF, 0.0) == 1.0


def test_kappa_prime_frozen_value():
    # 1 - (1/9)(1/256)
    assert kappa_prime(P_HALF) == pytest.approx(2303 / 2304, abs=1e-15)


def test_kappa_decreases_to_kappa_prime():
    vals = [kappa(P_HALF, 0.8, k) for k in range(1, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(a > b for a, b in zip(vals[:8], vals[1:9]))
    assert vals[-1] == pytest.approx(kappa_prime(P_HALF), abs=1e-9)


def test_kappa_rejects_bad_k():
    with pytest.raises(DomainError):
        kappa(P_HALF, 1.0, k=0)


# --- solve_t ---------------------------------------------------------------


def test_solve_t_frozen_values():
    rep = solve_t(Params(m=3, d=2, p=0.2))
    assert rep.s_hausdorff == pytest.approx(0.5350264792820731, abs=1e-14)
    assert rep.t_upper == pytest.approx(0.527532272800501, abs=1e-12)
    assert rep.residual <= 1e-12
    assert rep.gap == pytest.approx(rep.s_hausdorff - rep.t_upper)
    rep7 = solve_t(Params(m=3, d=2, p=0.7))
    assert rep7.s_hausdorff == pytest.approx(1.6753404748720375, abs=1e-14)
    assert rep7.residual <= 1e-12


def test_solve_t_bounds_and_k_monotonicity():
    prev = None
    for k in (1, 2, 3, 5):
        rep = solve_t(Params(m=4, d=2, p=0.4), k=k)
        lower = rep.s_hausdorff + math.log(kappa_prime(Params(m=4, d=2, p=0.4))) / math.log(4)
        assert lower <= rep.t_upper < rep.s_hausdorff
        if prev is not None:
            assert rep.t_upper < prev
        prev = rep.t_upper


def test_solve_t_underflow_saturation_warning():
    # (1-p)^56 is far below one ulp of 1: kappa == 1.0 in float, the root
    # lands on s_hausdorff and the report says so instead of inventing a gap
    rep = solve_t(Params(m=4, d=3, p=0.5))
    assert rep.warning is not None and "underflow" in rep.warning
    assert rep.t_upper == 2.5 == rep.s_hausdorff
    assert rep.gap == 0.0


def test_solve_t_extinction_warning():
    rep = solve_t(Params(m=3, d=2, p=0.1))  # p < M^-d
    assert rep.warning is not None
    assert math.isnan(rep.t_upper)
    assert rep.s_hausdorff == pytest.approx(2 + math.log(0.1) / math.log(3))


# --- solve_epsilon -----------------------------------------------------------


EXPECTED_EPSILON = {
    (3, 2): 0.003887,
    (4, 2): 0.005559,
    (5, 2): 0.006082,
    (3, 3): 0.001570,
    (4, 3): 0.002403,
}


def test_epsilon_table_frozen_values():
    for rep in epsilon_table():
        assert rep.epsilon == pytest.approx(
            EXPECTED_EPSILON[(rep.m, rep.d)], abs=1e-5
        )
        assert rep.residual <= 1e-12


def test_epsilon_consistency_identity():
    # at p_star the two logs cancel: epsilon = -log_M kappa_prime(p_star)
    rep = solve_epsilon(3, 2)
    kp = kappa_prime(Params(m=3, d=2, p=rep.p_star))
    assert rep.epsilon == pytest.approx(-math.log(kp) / math.log(3), abs=1e-9)


def test_epsilon_rejects_bad_dims():
    with pytest.raises(DomainError):
        solve_epsilon(3, 1)
    with pytest.raises(DomainError):
        solve_epsilon(2, 2)


def test_epsilon_default_cases():
    assert EPSILON_TABLE_CASES == ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3))


# --- one-generation outcome table --------------------------------------------


def _enumerated_oracle(pr, s, k):
    """E Y^s_1 summed over all 2^(M^d) survival masks of one generation
    (labels 1..nb are the boundary cells, bits 0..nb-1)."""
    a, nb, m, p = pr.alphabet_size, pr.n_boundary, pr.m, pr.p
    masks = np.arange(1 << a, dtype=np.uint64)
    alive = np.bitwise_count(masks).astype(np.int64)
    alive_b = np.bitwise_count(masks & np.uint64((1 << nb) - 1)).astype(np.int64)
    prob = p**alive * (1.0 - p) ** (a - alive)
    per_child = np.where(alive_b > 0, float(m) ** (-s), float(m) ** (-s * (k + 1)))
    return math.fsum((prob * alive * per_child).tolist())


@pytest.mark.parametrize("m", [3, 4])
def test_level1_oracle_matches_mask_enumeration(m):
    for p in (0.3, 0.5, 0.7):
        for k in (1, 2):
            pr = Params(m=m, d=2, p=p, k=k)
            for s in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
                assert abs(level1_oracle(pr, s) - _enumerated_oracle(pr, s, k)) <= 1e-12


def test_one_generation_table_shape_and_mass():
    pr = Params(m=5, d=3, p=0.4, k=2)
    prob, value = _one_generation(pr, 1.0, 2)
    assert prob.shape == value.shape == (125 + 27 + 1,)
    assert math.fsum(prob.tolist()) == pytest.approx(1.0, abs=1e-14)
    assert (prob >= 0).all()


def test_level1_oracle_matches_kappa_grid():
    for p in (0.3, 0.5, 0.7):
        for k in (1, 2):
            pr = Params(m=3, d=2, p=p, k=k)
            for s in np.arange(0.25, 2.01, 0.25):
                closed = p * 3 ** (2 - s) * kappa(pr, float(s))
                assert abs(level1_oracle(pr, float(s)) - closed) <= 1e-12


def test_level1_oracle_special_cases():
    assert level1_oracle(P_HALF, 0.0) == pytest.approx(0.5 * 9, abs=1e-12)
    for s in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            level1_oracle(P_HALF, s)
    pr3 = Params(m=3, d=3, p=0.5)
    assert abs(level1_oracle(pr3, 1.0) - 0.5 * 9 * kappa(pr3, 1.0)) <= 1e-12


# --- partition sums ------------------------------------------------------------


def partition_sum(ftree, s, n):
    """Y^s_n = sum of M^(-s |rewritten word|) over the level-n survivors,
    from the histogram of rewritten lengths, a sufficient statistic."""
    counts = np.bincount(ftree.tilde_lengths[n]).tolist()
    m = ftree.params.m
    return math.fsum(c * m ** (-s * length) for length, c in enumerate(counts) if c)


def partition_sum_exact(ftree, s, n):
    """Y^s_n as a Fraction, for an integer s >= 0."""
    counts = np.bincount(ftree.tilde_lengths[n]).tolist()
    m = ftree.params.m
    return sum((Fraction(c, m ** (s * length)) for length, c in enumerate(counts)),
               Fraction(0))


def test_partition_sum_hand_tree_exact():
    ft = compute_flags(HAND)
    assert partition_sum(ft, 0.0, 1) == 2.0
    assert partition_sum_exact(ft, 1, 1) == Fraction(2, 3)
    # the single level-2 survivor picked up one K=1 insertion
    assert partition_sum_exact(ft, 1, 2) == Fraction(1, 27)
    assert np.bincount(ft.tilde_lengths[2]).tolist() == [0, 0, 0, 1]


def test_partition_sum_full_tree_power_law():
    ft = compute_flags(sample_tree(P_NEAR_ONE, 3, 0))
    for n in range(4):
        for s in (0.5, 1.0, 2.0):
            assert partition_sum(ft, s, n) == pytest.approx(
                3.0 ** ((2 - s) * n), rel=1e-12
            )


def test_mean_partition_sum_matches_power_of_step_factor():
    # average Y over independent trees (extinct ones count zero)
    pr = P_HALF
    trees = [compute_flags(sample_tree(pr, 3, seed)) for seed in range(400)]
    for s in (0.5, 1.5):
        factor = pr.p * 3 ** (2 - s) * kappa(pr, s)
        vals = np.array([partition_sum(ft, s, 3) for ft in trees])
        z = (vals.mean() - factor**3) / (vals.std(ddof=1) / 20.0)
        assert abs(z) <= 3.0


# --- martingale resampling -------------------------------------------------------


def test_martingale_check_preconditions():
    ft = compute_flags(HAND)
    with pytest.raises(DomainError):
        martingale_check(ft, 1.0, 1, trials=99, seed=0)
    with pytest.raises(DomainError):
        martingale_check(ft, -1.0, 1, trials=500, seed=0)
    with pytest.raises(DomainError):
        martingale_check(ft, 1.0, 5, trials=500, seed=0)
    dead = compute_flags(tree_from_words(P_HALF, 1, [[()], []]))
    with pytest.raises(DomainError):
        martingale_check(dead, 1.0, 1, trials=500, seed=0)


def test_martingale_check_branching_at_s_zero():
    ft = compute_flags(sample_tree(P_HALF, 2, 4))
    rep = martingale_check(ft, 0.0, 2, trials=4000, seed=1)
    assert rep.step_factor == pytest.approx(4.5, abs=1e-12)
    assert rep.expected_mean == pytest.approx(4.5 * ft.tree.count(2))
    assert abs(rep.zscore) <= 3.0


def test_martingale_check_root_matches_oracle():
    ft = compute_flags(sample_tree(P_HALF, 1, 0))
    rep = martingale_check(ft, 0.75, 0, trials=6000, seed=2)
    assert rep.frozen_value == 1.0
    assert rep.expected_mean == pytest.approx(level1_oracle(P_HALF, 0.75), abs=1e-12)
    assert abs(rep.zscore) <= 3.0


def test_martingale_check_unit_factor_at_t_upper():
    pr = Params(m=3, d=2, p=0.7)
    t = solve_t(pr).t_upper
    ft = compute_flags(sample_tree(pr, 3, 7))
    rep = martingale_check(ft, t, 3, trials=4000, seed=3)
    assert rep.step_factor == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.zscore) <= 3.0
    assert rep.ratio == pytest.approx(1.0, abs=5 * rep.stderr / rep.frozen_value)


def test_martingale_check_law_over_length_groups():
    # level 2 holds 32 children of unflagged nodes (1,), (2,) and 16
    # interior children of the flagged nodes (13,)..(16,), whose K=2
    # insertion makes their rewritten length 4 instead of 2
    pr = Params(m=4, d=2, p=0.4, k=2, eta=(16, 13))
    parents = (1, 2, 13, 14, 15, 16)
    level2 = [(i, j) for i in (1, 2) for j in range(1, 17)]
    level2 += [(i, j) for i in parents[2:] for j in parents[2:]]
    ft = compute_flags(tree_from_words(pr, 2, [[()], [(i,) for i in parents], level2]))
    lengths, sizes = np.unique(ft.tilde_lengths[2], return_counts=True)
    assert lengths.tolist() == [2, 4] and sizes.tolist() == [32, 16]
    s, trials = 0.25, 20_000
    rep = martingale_check(ft, s, 2, trials, seed=0)
    assert abs(rep.zscore) <= 3.0
    # exact variance of Y_{n+1} from the outcome table: the terms are
    # independent, so variances and fourth cumulants add over nodes
    prob, value = _one_generation(pr, s, pr.k)
    dev = value - prob @ value
    c2, c4 = prob @ dev**2, prob @ dev**4
    w = 4.0 ** (-s * lengths.astype(np.float64))
    var = float((sizes * w**2).sum() * c2)
    mu4 = float((sizes * w**4).sum() * (c4 - 3 * c2**2)) + 3 * var**2
    sample_var = (rep.stderr * math.sqrt(trials)) ** 2
    se = math.sqrt((mu4 - var**2 * (trials - 3) / (trials - 1)) / trials)
    assert abs(sample_var - var) <= 3.0 * se


# --- growth-rate fits --------------------------------------------------------------


def test_zero_slope_interpolation():
    grid = np.array([1.0, 2.0, 3.0])
    assert zero_slope(grid, np.array([0.5, -0.5, -1.0])) == pytest.approx(1.5)
    assert zero_slope(grid, np.array([3.5, -3.5, -7.0])) == pytest.approx(1.5)
    assert zero_slope(grid, np.array([1.0, 0.5, 0.25])) is None


def test_estimate_dims_preconditions():
    with pytest.raises(DomainError):
        estimate_dims(P_HALF, trials=29, depth=3, s_grid=(1.0, 2.0))
    with pytest.raises(DomainError):
        estimate_dims(P_HALF, trials=30, depth=3, s_grid=(1.0,))
    with pytest.raises(DomainError):
        estimate_dims(P_HALF, trials=30, depth=3, s_grid=(1.0, 2.0), n_range=(1, 2))
    with pytest.raises(DomainError):
        estimate_dims(P_HALF, trials=30, depth=3, s_grid=(1.0, 2.0), n_range=(1, 2, 4))


def test_estimate_dims_full_tree_recovers_d():
    fit = estimate_dims(
        P_NEAR_ONE, trials=30, depth=3, s_grid=(1.8, 1.9, 2.0, 2.1, 2.2), seed=0
    )
    assert fit.rejections == 0 and fit.insertions == 0
    assert fit.s_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.t_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.converged and not fit.widened
    assert fit.s_ci[0] <= fit.s_hat <= fit.s_ci[1]


def test_estimate_dims_counts_insertions():
    # survivors of levels 1..4 whose rewritten word outgrew their level,
    # counted straight from the flagged trees the fit draws
    fit = estimate_dims(P_HALF, trials=30, depth=4, s_grid=(1.0, 1.5, 2.0), seed=3)
    want = 0
    for i in range(30):
        tree, _ = sample_nonextinct(P_HALF, 4, derive_seed(3, "dims", i))
        lengths = compute_flags(tree).tilde_lengths
        want += sum(int((lengths[n] > n).sum()) for n in range(1, 5))
    assert fit.insertions == want > 0


def test_estimate_dims_widens_grid_when_needed():
    fit = estimate_dims(
        P_NEAR_ONE, trials=30, depth=3, s_grid=(1.5, 1.9), seed=0
    )
    assert fit.widened and fit.converged
    assert fit.t_hat == pytest.approx(2.0, abs=1e-6)


# --- distortion scan ------------------------------------------------------------


def test_qs_scan_identity_when_no_flags():
    ft = compute_flags(sample_tree(P_NEAR_ONE, 2, 0))
    scan = qs_ratio_scan(ft, 2, triples=500, seed=0)
    assert scan.c_emp <= 1.0 + 1e-12
    assert scan.pair_ratio_min == 1.0 and scan.pair_ratio_max == 1.0
    assert scan.degenerate > 0  # 81 survivors, collisions certain
    assert scan.degenerate + scan.coincident < 500


def test_qs_scan_real_tree_under_bracket():
    ft = compute_flags(sample_tree(Params(m=3, d=2, p=0.7), 4, 1))
    scan = qs_ratio_scan(ft, 4, triples=2000, seed=5)
    assert scan.bracket_bound == 81.0
    assert 0.0 < scan.c_emp <= scan.bracket_bound
    assert 0.0 < scan.pair_ratio_min <= scan.pair_ratio_max
    assert scan.pair_ratio_max / scan.pair_ratio_min <= scan.bracket_bound


def _scan_extremes_reference(ft, level, triples, seed):
    """min and max of the rounded exact ratios of the pairs qs_ratio_scan
    measures: (x, y) of its first 512 usable triples."""
    picks = np.random.default_rng(seed).integers(
        0, ft.tree.count(level), size=(triples, 3)
    )
    kept = picks[(picks[:, 0] != picks[:, 2]) & (picks[:, 0] != picks[:, 1])]
    exact = [float(r) for r in pair_ratios(ft, level, kept[:512, :2])]
    return min(exact), max(exact)


@pytest.mark.parametrize("i", range(3))
def test_qs_scan_exact_extremes_depth_8(i):
    pr = Params(m=3, d=2, p=0.4)
    tree, _ = sample_nonextinct(pr, 8, derive_seed(0, "qs", i))
    ft = compute_flags(tree)
    scan = qs_ratio_scan(ft, 8, triples=2000, seed=i)
    want = _scan_extremes_reference(ft, 8, 2000, i)
    assert (scan.pair_ratio_min, scan.pair_ratio_max) == want
    assert want[0] < want[1]


# rewritten corners 5^-28 apart collide in binary64, so the float part of
# the scan divides 0 by 0; the exact extremes do not use those floats
def test_qs_scan_exact_extremes_past_int64():
    ft = _past_int64_tree()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = qs_ratio_scan(ft, 7, triples=300, seed=3)
    assert math.isnan(scan.c_emp)
    assert (scan.pair_ratio_min, scan.pair_ratio_max) == _scan_extremes_reference(
        ft, 7, 300, 3
    )


def test_qs_scan_exact_extremes_tied():
    # root flagged: the four pairs across it have ratio 1/4, the two
    # within (13,) and (14,) have ratio 1
    pr = Params(m=4, d=2, p=0.7)
    ft = compute_flags(tree_from_words(
        pr, 2, [[()], [(13,), (14,)], [(13, 1), (13, 2), (14, 1), (14, 16)]]
    ))
    scan = qs_ratio_scan(ft, 2, triples=200, seed=0)
    assert (scan.pair_ratio_min, scan.pair_ratio_max) == (0.25, 1.0)
    assert _scan_extremes_reference(ft, 2, 200, 0) == (0.25, 1.0)


def test_qs_scan_preconditions():
    ft = compute_flags(sample_tree(P_HALF, 2, 0))
    with pytest.raises(DomainError):
        qs_ratio_scan(ft, 0, triples=10, seed=0)  # one survivor at the root
    with pytest.raises(DomainError):
        qs_ratio_scan(ft, 2, triples=0, seed=0)


# --- reports ------------------------------------------------------------------------


def test_report_json_bytes_shape():
    raw = report_json_bytes("solve-t", {"M": 3}, {"t": 0.5}, passed=True)
    assert raw.endswith(b"\n")
    obj = json.loads(raw)
    assert obj["format"] == "percoqs-report/2"
    assert obj["command"] == "solve-t"
    assert obj["config"] == {"M": 3}
    assert obj["results"] == {"t": 0.5}
    assert obj["pass"] is True
    assert b" " not in raw.strip()  # compact separators
    assert "pass" not in json.loads(report_json_bytes("x", {}, {}))
    raw = report_json_bytes("x", {}, {"a": math.nan, "b": [-math.inf, (1.5, math.inf)]})
    assert raw.endswith(b'"results":{"a":null,"b":[null,[1.5,null]]}}\n')


# Each report class with literal fields, non-finite floats, None, tuples
# and a warning string, and the bytes that each report's own hand-written
# serialiser gave before the reports shared one encoder.
_NAN, _INF = math.nan, math.inf
FROZEN_REPORTS = [
    (("solve t", {"M": 3, "d": 2, "p": 0.05, "K": 1, "eta": [9], "seed": 0},
      DimReport(s_hausdorff=-0.7267951360972264, t_upper=_NAN, kappa_at_t=_INF,
                gap=-0.0, k=2, residual=1e-300,
                warning='p=0.05 <= M^-d=0.111111: "quoted" \u00e9'), None),
     b'{"format":"percoqs-report/2","command":"solve t","config":{"M":3,"d":2,'
     b'"p":0.05,"K":1,"eta":[9],"seed":0},"results":{"s_hausdorff":'
     b'-0.7267951360972263,"t_upper":null,"kappa_at_t":null,"gap":-0.0,"K":2,'
     b'"residual":1e-300,"warning":"p=0.05 <= M^-d=0.111111: \\"quoted\\" '
     b'\\u00e9"}}\n'),
    (("solve epsilon-table", {"cases": [[3, 2]]},
      EpsilonReport(m=4, d=3, p_star=0.1 + 0.2, epsilon=-_INF, residual=_NAN), None),
     b'{"format":"percoqs-report/2","command":"solve epsilon-table","config":'
     b'{"cases":[[3,2]]},"results":{"M":4,"d":3,"p_star":0.30000000000000004,'
     b'"epsilon":null,"residual":null}}\n'),
    (("check martingale", {"M": 5, "seed": 2**64 - 1},
      MartingaleReport(s=1.25, n=3, trials=100, seed=2**64 - 1, level_count=7,
                       frozen_value=1.5e-17, step_factor=0.9999999999999999,
                       expected_mean=_INF, mean=-_INF, stderr=0.0, ratio=_NAN,
                       zscore=_INF), True),
     b'{"format":"percoqs-report/2","command":"check martingale","config":'
     b'{"M":5,"seed":18446744073709551615},"results":{"s":1.25,"n":3,'
     b'"trials":100,"seed":18446744073709551615,"level_count":7,'
     b'"frozen_value":1.5e-17,"step_factor":0.9999999999999999,'
     b'"expected_mean":null,"mean":null,"stderr":0.0,"ratio":null,'
     b'"zscore":null},"pass":true}\n'),
    (("check qs", {"M": 3, "d": 2},
      QsScan(level=4, triples=2000, degenerate=3, coincident=0, c_emp=12.5,
             bracket_bound=81.0, pair_ratio_min=_INF, pair_ratio_max=-_INF,
             seed=123456789), False),
     b'{"format":"percoqs-report/2","command":"check qs","config":{"M":3,"d":2},'
     b'"results":{"level":4,"triples":2000,"degenerate":3,"coincident":0,'
     b'"c_emp":12.5,"bracket_bound":81.0,"pair_ratio_min":null,'
     b'"pair_ratio_max":null,"seed":123456789},"pass":false}\n'),
    (("check dims", {"M": 3, "trials": 30},
      DimFit(s_hat=1.6, s_ci=(1.5, _NAN), t_hat=None, t_ci=None,
             s_hausdorff=1.6753404748720375, t_upper=1.675, trials=30, depth=3,
             n_range=(1, 2, 3), s_grid=(1.3, 1.35, _INF), seed=0, rejections=11,
             insertions=0, widened=True, converged=False), False),
     b'{"format":"percoqs-report/2","command":"check dims","config":{"M":3,'
     b'"trials":30},"results":{"s_hat":1.6,"s_ci":[1.5,null],"t_hat":null,'
     b'"t_ci":null,"s_hausdorff":1.6753404748720375,"t_upper":1.675,'
     b'"trials":30,"depth":3,"n_range":[1,2,3],"s_grid":[1.3,1.35,null],'
     b'"seed":0,"rejections":11,"insertions":0,"widened":true,'
     b'"converged":false},"pass":false}\n'),
    (("check dims", {"M": 3, "trials": 31},
      DimFit(s_hat=1.6, s_ci=(1.5, 1.7), t_hat=1.55, t_ci=(1.4, 1.625),
             s_hausdorff=1.6753404748720375, t_upper=1.675, trials=31, depth=6,
             n_range=(2, 4, 6), s_grid=(1.3,), seed=7, rejections=0,
             insertions=5, widened=False, converged=True), True),
     b'{"format":"percoqs-report/2","command":"check dims","config":{"M":3,'
     b'"trials":31},"results":{"s_hat":1.6,"s_ci":[1.5,1.7],"t_hat":1.55,'
     b'"t_ci":[1.4,1.625],"s_hausdorff":1.6753404748720375,"t_upper":1.675,'
     b'"trials":31,"depth":6,"n_range":[2,4,6],"s_grid":[1.3],"seed":7,'
     b'"rejections":0,"insertions":5,"widened":false,"converged":true},'
     b'"pass":true}\n'),
]


@pytest.mark.parametrize("case, want", FROZEN_REPORTS,
                         ids=["DimReport", "EpsilonReport", "MartingaleReport",
                              "QsScan", "DimFit-unconverged", "DimFit"])
def test_report_bytes_frozen(case, want):
    command, config, report, passed = case
    assert report_json_bytes(command, config, report, passed) == want
