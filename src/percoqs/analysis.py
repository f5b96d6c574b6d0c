"""Numerical analysis of the rewritten-tree geometry.

Closed forms
------------
Per generation, a surviving cell keeps side M^-1 unless its parent was
flagged, in which case the insertion stretches its address by K letters
(side M^-(K+1)).  Averaging M^(-s * extra length) over one generation of
children gives the contraction factor

    kappa(s, K) = 1 - ((M-2)^d / M^d) (1 - M^(-sK)) (1-p)^(M^d-(M-2)^d)

and its K -> infinity limit kappa_prime.  The s-indexed partition sums
Y_n^s = sum over level-n survivors of M^(-s |rewritten word|) then
satisfy E Y_{n+1}^s = p M^(d-s) kappa(s, K) E Y_n^s, so the exponent
t solving p M^(d-t) kappa(t, K) = 1 is the zero-growth (dimension-
upper-bound) exponent, sitting just below the untouched-tree exponent
s = d + log p / log M.

A level's histogram of rewritten-word lengths, np.bincount of
tilde_lengths[n], is a sufficient statistic for Y_n^s at every s.
Everything statistical here consumes frozen sampled trees and reports
means, standard errors and z-scores against these closed forms.  Each
result is a frozen dataclass, and report_json_bytes writes it as it
stands, field by field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .lattice import Params, _json_ready, corner_floats
from .percolation import derive_seed, sample_nonextinct
from .substitution import FlaggedTree, _pair_ratio_terms, compute_flags, level_table

BISECT_ITERATIONS = 200

EPSILON_TABLE_CASES = ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3))


def log_base(m: int, x: float) -> float:
    return math.log(x) / math.log(m)


def kappa(params: Params, s: float, k: int | None = None) -> float:
    """Mean per-generation contraction factor of Y^s, relative to the
    untouched-tree factor p M^(d-s)."""
    if k is None:
        k = params.k
    if k < 1:
        raise DomainError(f"K must be >= 1, got {k}")
    if not (0 <= s < math.inf):
        raise DomainError(f"s must be a finite number >= 0, got {s}")
    m, d, p = params.m, params.d, params.p
    interior_frac = (m - 2) ** d / m**d
    return 1.0 - interior_frac * (1.0 - m ** (-s * k)) * (1.0 - p) ** params.n_boundary


def kappa_prime(params: Params) -> float:
    """Limit of kappa as K -> infinity (worst-case insertion length)."""
    m, d, p = params.m, params.d, params.p
    interior_frac = (m - 2) ** d / m**d
    return 1.0 - interior_frac * (1.0 - p) ** params.n_boundary


@dataclass(frozen=True)
class DimReport:
    """Dimension exponents for one parameter set."""

    s_hausdorff: float
    t_upper: float
    kappa_at_t: float
    gap: float
    k: int
    residual: float
    warning: str | None = None


def solve_t(params: Params, k: int | None = None) -> DimReport:
    """Bisection for the zero-growth exponent t in [0, d] solving
    p M^(d-t) kappa(t, K) = 1.

    For p <= M^-d the population dies almost surely and the equation has
    no root in [0, d]; the report then carries a warning instead of
    failing silently.
    """
    if k is None:
        k = params.k
    m, d, p = params.m, params.d, params.p
    s_h = d + log_base(m, p)
    if p <= m ** (-d):
        return DimReport(
            s_hausdorff=s_h,
            t_upper=math.nan,
            kappa_at_t=math.nan,
            gap=math.nan,
            k=k,
            residual=math.nan,
            warning=(
                f"p={p} <= M^-d={m ** (-d):.6g}: almost-sure extinction, "
                "no zero-growth exponent in [0, d]"
            ),
        )

    def phi(t: float) -> float:
        return p * m ** (d - t) * kappa(params, t, k) - 1.0

    lo, hi = 0.0, float(d)  # phi(lo) > 0 > phi(hi) in this regime
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    residual = abs(phi(t))
    if t > s_h + 1e-9:
        raise RuntimeError(f"zero-growth exponent {t} not below {s_h}")
    warning = None
    if not t < s_h:
        # (1-p)^n_boundary underflowed: kappa rounds to 1 and the gap,
        # while strictly positive, sits below float resolution
        warning = (
            "insertion correction underflows in float at these parameters; "
            "t_upper coincides with s_hausdorff"
        )
    return DimReport(
        s_hausdorff=s_h,
        t_upper=t,
        kappa_at_t=kappa(params, t, k),
        gap=max(0.0, s_h - t),
        k=k,
        residual=residual,
        warning=warning,
    )


@dataclass(frozen=True)
class EpsilonReport:
    """Near-critical threshold: at p_star the dimension upper bound
    d + log_M p + log_M kappa_prime equals 1, and epsilon is how far the
    plain dimension d + log_M p_star sits above 1."""

    m: int
    d: int
    p_star: float
    epsilon: float
    residual: float


def solve_epsilon(m: int, d: int) -> EpsilonReport:
    """Bisection in p for d + log_M(p kappa_prime(p)) = 1 (needs d >= 2)."""
    if m < 3:
        raise DomainError(f"M must be >= 3, got {m}")
    if d < 2:
        raise DomainError(f"the threshold needs d >= 2, got {d}")
    interior_frac = (m - 2) ** d / m**d
    nb = m**d - (m - 2) ** d

    def big_g(p: float) -> float:
        kp = 1.0 - interior_frac * (1.0 - p) ** nb
        return d - 1.0 + log_base(m, p * kp)

    lo, hi = m ** (-d) + 1e-9, 1.0 - 1e-9  # big_g(lo) < 0 < big_g(hi)
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if big_g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    return EpsilonReport(
        m=m,
        d=d,
        p_star=p_star,
        epsilon=d - 1.0 + log_base(m, p_star),
        residual=abs(big_g(p_star)),
    )


def epsilon_table(cases=EPSILON_TABLE_CASES) -> list[EpsilonReport]:
    return [solve_epsilon(m, d) for m, d in cases]


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    pmf = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    return np.array(pmf)


def _one_generation(params: Params, s: float, k: int) -> tuple[np.ndarray, ...]:
    """Law of one node's term in Y^s_{n+1}, in units of the node's
    weight, as (probability, value) arrays.

    With b ~ Bin(nb, p) alive boundary and i ~ Bin(ni, p) alive interior
    children, the term is (b + i) M^-s when b >= 1, and i M^(-s(K+1))
    when b = 0 (the node is flagged).  Rows a = b + i = 1..M^d hold the
    first case, rows i = 0..ni the second.
    """
    m, a, nb = float(params.m), params.alphabet_size, params.n_boundary
    try:
        pb = _binomial_pmf(nb, params.p)
        pi = _binomial_pmf(a - nb, params.p)
    except OverflowError:
        # math.comb(n, j) past 1e308 does not convert to a float
        raise DomainError(
            f"the one-generation outcome table at M={params.m}, d={params.d} "
            f"({a + (a - nb) + 1} rows, {nb} boundary cells) needs binomial "
            "coefficients past the float range"
        ) from None
    prob = np.concatenate([np.convolve(pb[1:], pi), pb[0] * pi])
    value = np.concatenate(
        [np.arange(1, a + 1) * m ** (-s), np.arange(a - nb + 1) * m ** (-s * (k + 1))]
    )
    return prob, value


def level1_oracle(params: Params, s: float, k: int | None = None) -> float:
    """E Y^s_1 as the expectation of the root's one-generation outcome
    table; an independent cross-check of p M^(d-s) kappa(s, K), since the
    table is built from binomial counts and never uses kappa's algebra.
    """
    if k is None:
        k = params.k
    if not (0 <= s < math.inf):
        raise DomainError(f"s must be a finite number >= 0, got {s}")
    prob, value = _one_generation(params, s, k)
    return math.fsum((prob * value).tolist())


@dataclass(frozen=True)
class MartingaleReport:
    """One-step conditional-mean check by resampling a frozen level."""

    s: float
    n: int
    trials: int
    seed: int
    level_count: int
    frozen_value: float
    step_factor: float
    expected_mean: float
    mean: float
    stderr: float
    ratio: float
    zscore: float


def martingale_check(
    ftree: FlaggedTree, s: float, n: int, trials: int, seed: int
) -> MartingaleReport:
    """Resample generation n+1 of a frozen tree and compare the mean of
    Y^s_{n+1} against p M^(d-s) kappa(s, K) Y^s_n.

    Each node's term is its weight M^(-s |rewritten word|) times an
    independent draw from the one-generation outcome table.  Nodes of
    equal rewritten length share a weight, so per trial the outcome
    counts of a length group are one multinomial draw over the table:
    the same law as drawing every node, at trials x (table size) cells
    per group.
    """
    if trials < 100:
        raise DomainError(
            f"need at least 100 trials for meaningful statistics, got {trials}"
        )
    if not (0 <= s < math.inf):
        raise DomainError(f"s must be a finite number >= 0, got {s}")
    if not (0 <= n <= ftree.depth):
        raise DomainError(f"level {n} outside 0..{ftree.depth}")
    pr = ftree.params
    w = ftree.tilde_lengths[n]
    if w.shape[0] == 0:
        raise DomainError(f"no survivors at level {n}; nothing to resample")
    weights = float(pr.m) ** (-s * w.astype(np.float64))
    prob, value = _one_generation(pr, s, pr.k)
    rng = np.random.default_rng(seed)
    sums = np.zeros(trials, dtype=np.float64)
    for length, size in zip(*np.unique(w, return_counts=True)):
        counts = rng.multinomial(int(size), prob, size=trials)
        sums += (counts @ value) * float(pr.m) ** (-s * float(length))
    frozen = float(weights.sum())
    factor = pr.p * pr.m ** (pr.d - s) * kappa(pr, s)
    expected = factor * frozen
    mean = float(sums.mean())
    stderr = float(sums.std(ddof=1) / math.sqrt(trials))
    if stderr == 0.0:
        zscore = 0.0 if mean == expected else math.inf
    else:
        zscore = (mean - expected) / stderr
    return MartingaleReport(
        s=s,
        n=n,
        trials=trials,
        seed=seed,
        level_count=w.shape[0],
        frozen_value=frozen,
        step_factor=factor,
        expected_mean=expected,
        mean=mean,
        stderr=stderr,
        ratio=mean / expected if expected != 0 else math.nan,
        zscore=zscore,
    )


def _ols_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    xm = xs.mean()
    ym = ys.mean()
    return float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())


def zero_slope(s_grid: np.ndarray, slopes: np.ndarray) -> float | None:
    """First zero crossing of a decreasing slope curve over the s grid,
    by linear interpolation; None when the grid does not bracket it."""
    for i in range(len(s_grid) - 1):
        a, b = slopes[i], slopes[i + 1]
        if a >= 0.0 > b:
            return float(s_grid[i] + a * (s_grid[i + 1] - s_grid[i]) / (a - b))
    return None


@dataclass(frozen=True)
class DimFit:
    """Monte Carlo growth-rate fits over non-extinct trees."""

    s_hat: float
    s_ci: tuple[float, float]
    t_hat: float | None
    t_ci: tuple[float, float] | None
    s_hausdorff: float
    t_upper: float
    trials: int
    depth: int
    n_range: tuple[int, ...]
    s_grid: tuple[float, ...]
    seed: int
    rejections: int
    insertions: int
    widened: bool
    converged: bool


def _hist_tensor(hists: list[list[np.ndarray]]) -> np.ndarray:
    """Stack ragged per-tree, per-level rewritten-length histograms into
    one zero-padded (trees, levels, max length) tensor."""
    width = max(h.shape[0] for tree_h in hists for h in tree_h)
    out = np.zeros((len(hists), len(hists[0]), width), dtype=np.float64)
    for i, tree_h in enumerate(hists):
        for n, h in enumerate(tree_h):
            out[i, n, : h.shape[0]] = h
    return out


def _grid_slopes(
    tensor: np.ndarray, tree_idx: np.ndarray, n_range: np.ndarray, s_grid: np.ndarray, m: int
) -> np.ndarray:
    """Regression slope of log_M(mean over trees of Y^s_n) against n,
    for every s in the grid."""
    lengths = np.arange(tensor.shape[2], dtype=np.float64)
    weights = float(m) ** (-np.outer(np.asarray(s_grid, dtype=np.float64), lengths))
    mean_h = tensor[tree_idx].mean(axis=0)  # (levels, length)
    y = mean_h[n_range] @ weights.T  # (levels in range, s)
    logy = np.log(y) / math.log(m)
    x = n_range.astype(np.float64)
    xc = x - x.mean()
    return (xc[:, None] * (logy - logy.mean(axis=0))).sum(axis=0) / (xc**2).sum()


def estimate_dims(
    params: Params,
    trials: int,
    depth: int,
    s_grid,
    n_range=None,
    seed: int = 0,
    bootstrap: int = 200,
    max_attempts: int = 10**4,
    node_budget: int = 10**8,
) -> DimFit:
    """Estimate the survivor-count growth exponent and the zero-growth
    exponent of the rewritten partition sums from fresh non-extinct
    trees.

    s_hat regresses log_M of the mean survivor count on the level;
    t_hat is the s at which the same regression for Y^s crosses zero
    slope (linear interpolation on the s grid, one automatic grid
    widening).  Confidence intervals are bootstrap percentiles over
    trees.  Trees are conditioned on reaching the target depth, so both
    fits see the same realized branches and their difference isolates
    the insertion effect.  `insertions` counts the survivors of the fitted
    levels whose rewritten word is longer than their level; when it is 0
    the two fits see the same sums and any t_hat < s_hat is float noise.
    """
    if trials < 30:
        raise DomainError(f"need at least 30 trees for a fit, got {trials}")
    s_grid = np.asarray(sorted(float(s) for s in s_grid))
    if s_grid.shape[0] < 2:
        raise DomainError("s grid needs at least two points")
    if n_range is None:
        n_range = range(1, depth + 1)
    n_range = np.asarray(sorted(int(n) for n in n_range))
    if n_range.shape[0] < 3:
        raise DomainError("need at least three levels to regress on")
    if n_range[0] < 0 or n_range[-1] > depth:
        raise DomainError(f"n range outside 0..{depth}")

    hists: list[list[np.ndarray]] = []
    rejections = 0
    for i in range(trials):
        tree, rej = sample_nonextinct(
            params,
            depth,
            derive_seed(seed, "dims", i),
            max_attempts=max_attempts,
            node_budget=node_budget,
        )
        rejections += rej
        ftree = compute_flags(tree)
        hists.append(
            [np.bincount(ftree.tilde_lengths[n]) for n in range(depth + 1)]
        )

    tensor = _hist_tensor(hists)
    all_idx = np.arange(trials)
    # survivors of a fitted level whose rewritten word is longer than it
    lengths = np.arange(tensor.shape[2])
    longer = lengths[None, :] > n_range[:, None]
    insertions = int(tensor[:, n_range, :][:, longer].sum())
    counts = tensor.sum(axis=2)  # (trees, levels) survivor counts
    log_m = math.log(params.m)
    s_logmeans = np.log(counts[:, n_range].mean(axis=0)) / log_m
    s_hat = _ols_slope(n_range.astype(np.float64), s_logmeans)

    slopes = _grid_slopes(tensor, all_idx, n_range, s_grid, params.m)
    t_hat = zero_slope(s_grid, slopes)
    widened = False
    grid = s_grid
    if t_hat is None:
        span = s_grid[-1] - s_grid[0]
        grid = np.concatenate(
            [
                np.linspace(max(0.0, s_grid[0] - span), s_grid[0], 5, endpoint=False),
                s_grid,
                np.linspace(s_grid[-1], s_grid[-1] + span, 6)[1:],
            ]
        )
        slopes = _grid_slopes(tensor, all_idx, n_range, grid, params.m)
        t_hat = zero_slope(grid, slopes)
        widened = True

    rng = np.random.default_rng(derive_seed(seed, "dims", "bootstrap"))
    s_boot = []
    t_boot = []
    for _ in range(bootstrap):
        idx = rng.integers(0, trials, size=trials)
        lm = np.log(counts[idx][:, n_range].mean(axis=0)) / log_m
        s_boot.append(_ols_slope(n_range.astype(np.float64), lm))
        tb = zero_slope(grid, _grid_slopes(tensor, idx, n_range, grid, params.m))
        if tb is not None:
            t_boot.append(tb)
    s_ci = (float(np.percentile(s_boot, 2.5)), float(np.percentile(s_boot, 97.5)))
    t_ci = None
    if t_hat is not None and t_boot:
        t_ci = (float(np.percentile(t_boot, 2.5)), float(np.percentile(t_boot, 97.5)))

    theory = solve_t(params)
    return DimFit(
        s_hat=s_hat,
        s_ci=s_ci,
        t_hat=t_hat,
        t_ci=t_ci,
        s_hausdorff=theory.s_hausdorff,
        t_upper=theory.t_upper,
        trials=trials,
        depth=depth,
        n_range=tuple(int(n) for n in n_range),
        s_grid=tuple(float(s) for s in grid),
        seed=seed,
        rejections=rejections,
        insertions=insertions,
        widened=widened,
        converged=t_hat is not None,
    )


@dataclass(frozen=True)
class QsScan:
    """Empirical three-point distortion scan of the corner map."""

    level: int
    triples: int
    degenerate: int
    coincident: int
    c_emp: float
    bracket_bound: float
    pair_ratio_min: float
    pair_ratio_max: float
    seed: int


def qs_ratio_scan(
    ftree: FlaggedTree, level: int, triples: int, seed: int, exact_pairs: int = 512
) -> QsScan:
    """Sample triples (x, y, z) of level-n survivor corners and compare
    the image ratio dist(fx, fy)/dist(fx, fz) against the source ratio r
    through the control shape max(r, r^(K+1)).

    c_emp is the largest image ratio divided by the control shape;
    triples with x = z carry no ratio and are skipped (counted), pairs
    with y = x contribute zero distances and are excluded from c_emp.
    c_emp is inf or nan, without a warning, when image corners of
    distinct survivors collide in binary64.
    Also tracks the exact two-point distortion range over the first
    `exact_pairs` usable (x, y) pairs.
    """
    count = ftree.tree.count(level)
    if count < 3:
        raise DomainError(f"need at least 3 survivors at level {level}, got {count}")
    if triples < 1:
        raise DomainError(f"need at least one triple, got {triples}")
    pr = ftree.params
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, count, size=(triples, 3))
    deg_mask = picks[:, 0] == picks[:, 2]
    coin_mask = ~deg_mask & (picks[:, 0] == picks[:, 1])
    use = ~(deg_mask | coin_mask)
    degenerate = int(deg_mask.sum())
    coincident = int(coin_mask.sum())

    c_emp = 0.0
    rmin, rmax = math.inf, -math.inf
    kept = picks[use]
    if kept.shape[0]:
        nodes = np.unique(kept)
        src_nums, img_nums = level_table(ftree, level, nodes)
        src = corner_floats(pr.m, src_nums, level)
        img = corner_floats(pr.m, img_nums, ftree.tilde_lengths[level][nodes])
        rows = np.searchsorted(nodes, kept)
        xs, ys, zs = rows[:, 0], rows[:, 1], rows[:, 2]
        # distinct survivors have distinct corners and (the rewriting is
        # injective) distinct images, so in exact arithmetic every kept
        # distance is positive; at large K distinct image corners can
        # round to one binary64, and c_emp then comes out inf or nan
        d_in_xy = np.abs(src[xs] - src[ys]).max(axis=1)
        d_in_xz = np.abs(src[xs] - src[zs]).max(axis=1)
        d_out_xy = np.abs(img[xs] - img[ys]).max(axis=1)
        d_out_xz = np.abs(img[xs] - img[zs]).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r_in = d_in_xy / d_in_xz
            r_out = d_out_xy / d_out_xz
            control = np.maximum(r_in, r_in ** (pr.k + 1))
            c_emp = float((r_out / control).max())
        num, den = _pair_ratio_terms(ftree, level, kept[:exact_pairs, :2])
        if num:
            # the extremes by exact cross-multiplication (denominators are
            # positive); rounding is monotone, so only these two are rounded
            lo = hi = 0
            for j in range(1, len(num)):
                if num[j] * den[lo] < num[lo] * den[j]:
                    lo = j
                elif num[j] * den[hi] > num[hi] * den[j]:
                    hi = j
            rmin = float(Fraction(num[lo], den[lo]))
            rmax = float(Fraction(num[hi], den[hi]))
    return QsScan(
        level=level,
        triples=triples,
        degenerate=degenerate,
        coincident=coincident,
        c_emp=c_emp,
        bracket_bound=float(pr.m ** (pr.k + 3)),
        pair_ratio_min=rmin,
        pair_ratio_max=rmax,
        seed=seed,
    )


def report_json_bytes(command: str, config: dict, results, passed=None) -> bytes:
    """Canonical percoqs-report/2 bytes; every report embeds the
    resolved configuration it ran (seeds included), so identical runs are
    byte-identical.  /2 names the hierarchical SplitMix64 sampling rule.
    results is a dict or a report dataclass, written field by field in
    field order (a report's m and k as M and K).  Non-finite floats (NaN,
    infinities) are written as null, so the bytes are strict JSON."""
    obj = {
        "format": "percoqs-report/2",
        "command": command,
        "config": config,
        "results": results,
    }
    if passed is not None:
        obj["pass"] = bool(passed)
    text = json.dumps(_json_ready(obj), separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("ascii")
