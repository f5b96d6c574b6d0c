"""Command line front end.

Subcommands: sample (tree files), render (SVG panels), solve
(closed-form exponents), check (self-verification against the closed
forms and map invariants).  All outputs are deterministic functions of
the printed configuration.  Sampling runs in one process; --workers is
accepted for compatibility and otherwise ignored.  The argument parser is
built once per process and reused by every call of main.

Exit codes: 0 ok, 1 usage or bad parameter, 2 resource budget exhausted,
3 I/O failure, 4 a requested check failed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import analysis, globalmap, percolation, substitution
from .errors import CapacityError, DomainError, PreconditionError
from .lattice import Params, _json_ready, corner_floats
from .percolation import DEFAULT_NODE_BUDGET, derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the file contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, default=3, help="subdivision base (>= 3)")
    p.add_argument("--d", type=int, default=2, help="dimension")
    p.add_argument("--p", type=float, default=0.7, help="survival probability")
    p.add_argument("--K", type=int, default=1, help="insertion word length")
    p.add_argument(
        "--eta",
        type=str,
        default=None,
        help="insertion word as comma-separated labels (default: central cell)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--depth", type=int, default=5, help="sampling depth")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    p.add_argument(
        "--workers", type=int, default=1, help="accepted and ignored (must be >= 1)"
    )
    p.add_argument("--out", "-o", type=str, default=None, help="output file")
    p.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help=f"candidate-evaluation cap (default {DEFAULT_NODE_BUDGET}; "
        "the PERCOQS_NODE_BUDGET environment variable wins)",
    )


def _params(args) -> Params:
    if args.workers < 1:
        raise DomainError(f"--workers must be >= 1, got {args.workers}")
    eta = None
    if args.eta is not None:
        try:
            eta = tuple(int(x) for x in args.eta.split(","))
        except ValueError:
            raise DomainError(
                f"--eta takes comma-separated integer labels, got {args.eta!r}"
            ) from None
    return Params(m=args.M, d=args.d, p=args.p, k=args.K, eta=eta)


def _node_budget(args) -> int:
    env = os.environ.get("PERCOQS_NODE_BUDGET")
    if env is not None:
        source = "PERCOQS_NODE_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise DomainError(f"{source} must be an integer, got {env!r}") from None
    elif args.node_budget is not None:
        source, budget = "--node-budget", args.node_budget
    else:
        return DEFAULT_NODE_BUDGET
    if budget < 1:
        raise DomainError(f"{source} must be >= 1, got {budget}")
    return budget


def _config_dict(params: Params, args, **extra) -> dict:
    return {**_json_ready(params), "seed": args.seed, **extra}


def _write_bytes(path: str | None, data: bytes) -> None:
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _emit_report(args, command: str, config: dict, results, passed=None):
    if args.out is not None:
        _write_bytes(args.out, analysis.report_json_bytes(command, config, results, passed))


# --- sample -----------------------------------------------------------------


def cmd_sample(args) -> int:
    params = _params(args)
    budget = _node_budget(args)
    if args.nonextinct:
        tree, rejections = percolation.sample_nonextinct(
            params, args.depth, args.seed, node_budget=budget
        )
        print(f"non-extinct after {rejections} rejections", file=sys.stderr)
    else:
        tree = percolation.sample_tree(params, args.depth, args.seed, node_budget=budget)
    for level in range(tree.depth + 1):
        print(f"level {level}: {tree.count(level)} survivors", file=sys.stderr)
    _write_bytes(args.out, tree.to_canonical_bytes())
    return EXIT_OK


# --- render ------------------------------------------------------------------

_SVG_FILL = "#30506d"
_SVG_IMAGE_FILL = "#7d3c68"

# The widest canvas, in px, whose coordinates _fixed4 writes exactly:
# every coordinate lies in [0, width), and |x| * 10^4 must stay below 2^63.
_MAX_CANVAS = 2**63 // 10**4


def _words(rows) -> np.ndarray:
    """Rows of four bytes as native uint32 words."""
    return np.asarray(rows, dtype=np.uint8).view(np.uint32).ravel()


# Entry k holds the four ASCII digits of k, as the bytes of one uint32.
_DIGITS = _words(
    np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
)
# Entry b keeps all but the first b bytes of a word: b leading zeros blanked.
_BLANK = _words([[0] * b + [255] * (4 - b) for b in range(5)])
# The sign word of a field, by np.signbit, and its decimal point word.
_SIGN = _words([[0, 0, 0, 0], [0, 0, 0, ord("-")]])
_POINT = _words([0, 0, 0, ord(".")])
# Place values of the 4-digit groups of an integer part below 10^16.
_PLACES = np.array([10**12, 10**8, 10**4, 1], dtype=np.uint64)
# An integer part has 1 + (the number of these at or below it) digits.
_POWERS = np.array([10**k for k in range(1, 16)], dtype=np.uint64)
# Rects per byte matrix, which bounds the matrices of large panels.
_CHUNK = 1 << 16


def _fixed4(x: np.ndarray) -> np.ndarray:
    """'%.4f' % v for every float v of x, as a uint8 array of ASCII bytes
    with one more axis: each field is whole uint32 words (sign, 4-digit
    groups of the integer part, point, fraction), padded with 0 bytes,
    as wide as the largest integer part needs.

    Exact while |v| * 10^4 < 2^63.  With v = mant * 2^exp (frexp) and
    10^4 = 625 * 2^4, |v| * 10^4 = q * 2^-s for the integer
    q = mant * 2^53 * 625 < 2^63 and s = 49 - exp; the s shifted-out bits
    round half to even, as Python's correctly rounded formatting does.
    """
    mant, exp = np.frexp(np.abs(x))
    q = (mant * 2.0**53).astype(np.uint64) * np.uint64(625)
    s = 49 - exp
    # the domain leaves a left shift of at most 1; past a right shift of
    # 63 the value is below 1/2 and rounds to 0
    q = np.where(s > 63, np.uint64(0), q << (s < 0).astype(np.uint64))
    shift = np.minimum(np.maximum(s, 0), 63).astype(np.uint64)
    whole = q >> shift
    rem2 = (q - (whole << shift)) << np.uint64(1)
    half2 = np.uint64(1) << shift
    n = whole + ((rem2 > half2) | ((rem2 == half2) & (whole & np.uint64(1) == 1)))
    ip, frac = np.divmod(n, np.uint64(10**4))
    groups = -(-len(str(int(ip.max(initial=0)))) // 4)
    # leading zeros per group; the units digit is always written
    digits = np.searchsorted(_POWERS, ip, side="right") + 1
    lead = np.clip(4 * groups - digits[..., None] - 4 * np.arange(groups), 0, 4)
    out = np.empty((*n.shape, groups + 3), dtype=np.uint32)
    out[..., 0] = _SIGN[np.signbit(x).view(np.uint8)]
    out[..., 1 : groups + 1] = (
        _DIGITS[(ip[..., None] // _PLACES[-groups:] % np.uint64(10**4)).astype(np.intp)]
        & _BLANK[lead]
    )
    out[..., groups + 1] = _POINT
    out[..., groups + 2] = _DIGITS[frac.astype(np.intp)]
    return out.view(np.uint8)


def _rect_lines(cols: np.ndarray, fill: str, cuts) -> list[str]:
    """The newline-led <rect> lines of the rows of an (n, 3) float array
    of x, y and side, one string per run of rows cuts[i]:cuts[i+1].
    Each _CHUNK rows make one matrix of uint32 words: literal pieces,
    zero-padded to whole words, and _fixed4 fields.  Its rows have one
    width, so runs are cut from its bytes before their 0 bytes go."""
    literals = ('\n<rect x="', '" y="', '" width="', '" height="', f'" fill="{fill}"/>')
    pieces = [
        np.frombuffer(p.encode("ascii").rjust(-(-len(p) // 4) * 4, b"\0"), dtype=np.uint32)
        for p in literals
    ]
    runs = [[] for _ in cuts[1:]]
    for lo in range(0, cols.shape[0], _CHUNK):
        fields = _fixed4(cols[lo : lo + _CHUNK]).view(np.uint32)
        width = fields.shape[-1]
        blank = np.zeros(width, dtype=np.uint32)
        row = np.concatenate([w for piece in pieces for w in (piece, blank)][:-1])
        mat = np.repeat(row[None], fields.shape[0], axis=0)
        at = 0
        for piece, col in zip(pieces, (0, 1, 2, 2)):
            at += piece.shape[0]
            mat[:, at : at + width] = fields[:, col]
            at += width
        raw, size = mat.tobytes(), 4 * row.shape[0]
        hi = lo + fields.shape[0]
        for run, a, b in zip(runs, cuts[:-1], cuts[1:]):
            if max(a, lo) < min(b, hi):
                run.append(raw[(max(a, lo) - lo) * size : (min(b, hi) - lo) * size])
    return [b"".join(run).translate(None, b"\0").decode("ascii") for run in runs]


def _check_injective(keys, img) -> None:
    """Rows with equal keys (a rewritten length, or a panel and a
    rewritten length) must have distinct corner numerators, i.e. distinct
    survivors rewrite to distinct image cells; a repeat would break the
    substitution's injectivity and raises."""
    rows = np.column_stack([keys, img])
    rows = rows[np.lexsort(rows.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise RuntimeError("image boxes collided; the substitution lost injectivity")


def render_svg(tree, levels, image=False, px=220, gap=14) -> str:
    """One square panel per requested level; survivors (or their image
    boxes) drawn as filled squares.  2-d trees only.

    Both panel kinds read level_table: a survivor's cell has corner src
    over M^level, its image cell corner img over M^(rewritten length).
    Image boxes are drawn sorted by corner, then side.  Coordinates are
    '%.4f' of float expressions in the corners, written by _fixed4; a
    canvas wider than _MAX_CANVAS px raises.  The rows of every panel
    are rounded, checked, sorted and written together, then split at the
    panel frames.
    """
    params = tree.params
    m = params.m
    if params.d != 2:
        raise DomainError(f"rendering is 2-d only, got d={params.d}")
    width = len(levels) * (px + gap) + gap
    height = px + 2 * gap
    if width > _MAX_CANVAS:
        raise DomainError(
            f"canvas width {width} px is past the {_MAX_CANVAS} px whose "
            "coordinates are written exactly"
        )
    # a depth-0 tree has no flags; its only level, the root, needs none
    ftree = substitution.compute_flags(tree) if tree.depth else None
    # empty first entries let a render of no levels through
    nums, lengths = [np.zeros((0, 2), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for level in levels:
        if ftree is None:  # the root's image cell is the unit cube itself
            src = img = np.zeros((1, 2), dtype=np.int64)
            tilde = np.zeros(1, dtype=np.int64)
        else:
            src, img = substitution.level_table(ftree, level)
            tilde = ftree.tilde_lengths[level]
        nums.append(img if image else src)
        lengths.append(tilde if image else np.full(src.shape[0], level))
    counts = [n.shape[0] for n in nums[1:]]
    panel = np.repeat(np.arange(len(levels)), counts)
    nums, lengths = np.concatenate(nums), np.concatenate(lengths)
    if image:
        fill = _SVG_IMAGE_FILL
        _check_injective(np.column_stack([panel, lengths]), nums)
        # a side 1/M^t is the corner of numerator 1, correctly rounded
        ones = np.ones((nums.shape[0], 1), dtype=np.int64)
        sides = corner_floats(m, ones, lengths)[:, 0]
    else:
        fill = _SVG_FILL
        sides = np.repeat([m ** (-level) for level in levels], counts)
    rects = np.column_stack([corner_floats(m, nums, lengths), sides])
    if image:  # panel by panel, by corner, then side
        rects = rects[np.lexsort((*rects.T[::-1], panel))]
    cx, cy, side = rects.T
    x0 = gap + panel * (px + gap)
    # SVG's y axis points down; flip so the origin is bottom-left
    cols = np.column_stack([x0 + cx * px, gap + (1.0 - cy - side) * px, side * px])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    cuts = list(itertools.accumulate(counts, initial=0))
    for i, lines in enumerate(_rect_lines(cols, fill, cuts)):
        parts.append(
            f'\n<rect x="{gap + i * (px + gap)}" y="{gap}" width="{px}" height="{px}" '
            f'fill="none" stroke="#222" stroke-width="1"/>'
        )
        parts.append(lines)
    parts.append("\n</svg>\n")
    return "".join(parts)


def cmd_render(args) -> int:
    if args.px < 1:
        raise DomainError(f"--px must be >= 1, got {args.px}")
    with open(args.tree, "rb") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"{args.tree} is not a JSON tree file: {exc}") from None
    tree = percolation.tree_from_json_dict(obj)
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        raise DomainError(
            f"--levels takes comma-separated integers, got {args.levels!r}"
        ) from None
    for level in levels:
        if not (0 <= level <= tree.depth):
            raise DomainError(f"level {level} outside 0..{tree.depth}")
    svg = render_svg(tree, levels, image=args.image, px=args.px)
    _write_bytes(args.out, svg.encode("ascii"))
    return EXIT_OK


# --- solve -------------------------------------------------------------------


def cmd_solve_t(args) -> int:
    params = _params(args)
    report = analysis.solve_t(params)
    print(
        f"s_hausdorff={report.s_hausdorff:.9f} t_upper={report.t_upper:.9f} "
        f"gap={report.gap:.3e} residual={report.residual:.3e}"
    )
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    _emit_report(args, "solve t", _config_dict(params, args), report)
    return EXIT_OK


def cmd_solve_epsilon_table(args) -> int:
    reports = analysis.epsilon_table()
    for r in reports:
        print(
            f"M={r.m} d={r.d} p_star={r.p_star:.9f} epsilon={r.epsilon:.6f} "
            f"residual={r.residual:.3e}"
        )
    _emit_report(
        args,
        "solve epsilon-table",
        {"cases": analysis.EPSILON_TABLE_CASES},
        {"rows": reports},
    )
    return EXIT_OK


def cmd_solve_kappa(args) -> int:
    params = _params(args)
    k_val = analysis.kappa(params, args.s)
    kp_val = analysis.kappa_prime(params)
    print(f"kappa(s={args.s}, K={params.k})={k_val!r} kappa_prime={kp_val!r}")
    _emit_report(
        args,
        "solve kappa",
        _config_dict(params, args, s=args.s),
        {"kappa": k_val, "kappa_prime": kp_val},
    )
    return EXIT_OK


# --- check -------------------------------------------------------------------


def _finish_check(args, command, config, results, passed, lines) -> int:
    for line in lines:
        print(line)
    _emit_report(args, command, config, results, passed)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_check_oracle(args) -> int:
    params = _params(args)
    tol = 1e-12
    p_grid, k_grid = (0.3, 0.5, 0.7), (1, 2)
    s_grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    rows = []
    worst = 0.0
    for p in p_grid:
        pr = Params(m=params.m, d=params.d, p=p, k=params.k, eta=params.eta)
        for k in k_grid:
            for s in s_grid:
                lhs = analysis.level1_oracle(pr, s, k)
                rhs = p * pr.m ** (pr.d - s) * analysis.kappa(pr, s, k)
                err = abs(lhs - rhs)
                worst = max(worst, err)
                rows.append({"p": p, "K": k, "s": s, "oracle": lhs, "closed_form": rhs})
    passed = worst <= tol
    return _finish_check(
        args,
        "check oracle",
        # the oracle runs its own grids; --p, --K, --eta and --seed change nothing
        {"M": params.m, "d": params.d, "p_grid": list(p_grid),
         "K_grid": list(k_grid), "s_grid": list(s_grid), "tolerance": tol},
        {"worst_error": worst, "rows": rows},
        passed,
        [f"one-generation outcome sum vs closed form: max |diff|={worst:.3e} "
         f"{'PASS' if passed else 'FAIL'}"],
    )


def cmd_check_martingale(args) -> int:
    params = _params(args)
    trials = args.trials if args.trials is not None else 10_000
    tree, _ = percolation.sample_nonextinct(
        params, args.depth, args.seed, node_budget=_node_budget(args)
    )
    ftree = substitution.compute_flags(tree)
    s = args.s if args.s is not None else analysis.solve_t(params).t_upper
    n = args.level if args.level is not None else args.depth - 1
    report = analysis.martingale_check(
        ftree, s, n, trials, derive_seed(args.seed, "martingale")
    )
    passed = abs(report.zscore) <= 3.0
    return _finish_check(
        args,
        "check martingale",
        _config_dict(params, args, depth=args.depth, s=s, n=n, trials=trials),
        report,
        passed,
        [f"one-step mean ratio={report.ratio:.6f} z={report.zscore:+.2f} "
         f"{'PASS' if passed else 'FAIL'}"],
    )


def cmd_check_qs(args) -> int:
    params = _params(args)
    trees = args.trees
    if trees < 1:
        raise DomainError(f"need at least one tree, got {trees}")
    triples = args.trials if args.trials is not None else 2000
    budget = _node_budget(args)
    rmin, rmax = math.inf, -math.inf
    usable = 0
    per_tree = []
    lines = []
    for i in range(trees):
        tree, _ = percolation.sample_nonextinct(
            params, args.depth, derive_seed(args.seed, "qs", i),
            node_budget=budget,
        )
        ftree = substitution.compute_flags(tree)
        scan = analysis.qs_ratio_scan(
            ftree, args.depth, triples, derive_seed(args.seed, "qs-scan", i)
        )
        per_tree.append(scan)
        usable += scan.triples - scan.degenerate - scan.coincident
        rmin = min(rmin, scan.pair_ratio_min)
        rmax = max(rmax, scan.pair_ratio_max)
        if not math.isfinite(scan.c_emp):
            lines.append(f"tree {i}: image corners of distinct survivors collide "
                         f"in binary64, so its C_emp is {scan.c_emp}")
    # np.max keeps a nan, which max() would drop
    c_emp = float(np.max([scan.c_emp for scan in per_tree]))
    bound = float(params.m ** (params.k + 3))
    passed = usable > 0 and c_emp <= bound
    lines.append(f"three-point control constant C_emp={c_emp:.4f} "
                 f"(bound {bound:.0f}) {'PASS' if passed else 'FAIL'}")
    if usable == 0:
        lines.insert(0, "every sampled triple repeats its first corner, so C_emp "
                        "measures nothing")
    return _finish_check(
        args,
        "check qs",
        _config_dict(params, args, depth=args.depth, trees=trees, triples=triples),
        {"c_emp": c_emp, "bound": bound, "pair_ratio_min": rmin,
         "pair_ratio_max": rmax, "per_tree": per_tree},
        passed,
        lines,
    )


def cmd_check_dims(args) -> int:
    params = _params(args)
    trials = args.trials if args.trials is not None else 200
    lo, hi, step = args.grid_lo, args.grid_hi, args.grid_step
    if not (all(math.isfinite(v) for v in (lo, hi, step)) and step > 0):
        raise DomainError(
            f"the s grid needs finite bounds and a positive step, got "
            f"--grid-lo {lo} --grid-hi {hi} --grid-step {step}"
        )
    grid = np.round(np.arange(lo, hi + 1e-9, step), 12)
    fit = analysis.estimate_dims(
        params,
        trials,
        args.depth,
        grid,
        seed=args.seed,
        node_budget=_node_budget(args),
    )
    passed = fit.converged and fit.insertions > 0 and fit.t_hat < fit.s_hat
    lines = [
        f"s_hat={fit.s_hat:.6f} (CI {fit.s_ci[0]:.6f}..{fit.s_ci[1]:.6f}), "
        f"theory {fit.s_hausdorff:.6f}",
        f"t_hat={fit.t_hat if fit.t_hat is None else round(fit.t_hat, 6)}, "
        f"theory {fit.t_upper:.6f}",
    ]
    if fit.insertions == 0:
        lines.append(
            "no survivor of a fitted level has an insertion, so t_hat and "
            "s_hat differ only by rounding"
        )
    lines.append(f"t_hat < s_hat: {'PASS' if passed else 'FAIL'}")
    return _finish_check(
        args,
        "check dims",
        _config_dict(params, args, depth=args.depth, trials=trials),
        fit,
        passed,
        lines,
    )


# pairs per block of check global's distortion bracket; its memory does
# not grow with --trials
_PAIR_BLOCK = 1 << 13


def cmd_check_global(args) -> int:
    params = _params(args)
    n_pairs = args.trials if args.trials is not None else 100_000
    if n_pairs < 2:
        raise DomainError(
            f"the distortion bracket needs at least 2 pairs, got {n_pairs}"
        )
    # sampled first, so parameters past the node budget stop before the
    # geometry's M^d label table is built
    tree, _ = percolation.sample_nonextinct(
        params, args.depth, args.seed, node_budget=_node_budget(args)
    )
    ftree = substitution.compute_flags(tree)
    cfg = globalmap.GeomConfig(params)
    rng = np.random.default_rng(derive_seed(args.seed, "global"))
    results = {}
    ok = True

    # branch agreement on the core boundary
    shell = cfg.inner_half
    pts = rng.random((2000, params.d))
    face = rng.integers(0, params.d, size=2000)
    sign = rng.integers(0, 2, size=2000) * 2 - 1
    core_pts = 0.5 + (pts - 0.5) * cfg.core_ratio
    core_pts[np.arange(2000), face] = 0.5 + sign * shell
    inner_vals = cfg.eta_corner + cfg.eta_scale * core_pts
    outer = globalmap.g_batch(cfg, core_pts)
    branch_err = float(np.max(np.abs(outer - inner_vals)))
    results["branch_agreement_max"] = branch_err
    ok &= branch_err <= 1e-12

    # boundary identity, exact
    bpts = rng.random((2000, params.d))
    bface = rng.integers(0, params.d, size=2000)
    bpts[np.arange(2000), bface] = np.where(rng.random(2000) < 0.5, 0.0, 1.0)
    bide = float(np.max(np.abs(globalmap.g_batch(cfg, bpts) - bpts)))
    results["boundary_identity_max"] = bide
    ok &= bide == 0.0

    # two-point distortion bracket, over _PAIR_BLOCK pairs at a time: the
    # generator's stream concatenates, so the blocks draw the pairs of one
    # (n_pairs, 2, d) draw and leave the same state for the draws below
    hi, lo = -np.inf, np.inf
    for start in range(0, n_pairs, _PAIR_BLOCK):
        pairs = rng.random((min(_PAIR_BLOCK, n_pairs - start), 2, params.d))
        gx = globalmap.g_batch(cfg, pairs[:, 0])
        gy = globalmap.g_batch(cfg, pairs[:, 1])
        din = globalmap._row_max_abs(pairs[:, 0] - pairs[:, 1])
        dout = globalmap._row_max_abs(gx - gy)
        keep = din > 0
        ratios = dout[keep] / din[keep]
        hi = np.maximum(hi, ratios.max(initial=-np.inf))
        lo = np.minimum(lo, ratios.min(initial=np.inf))
    bracket = float(hi / lo)
    bound = float(params.m ** (params.k + 2))
    results["bilipschitz_bracket"] = bracket
    results["bilipschitz_bound"] = bound
    ok &= bracket <= bound

    # extension agrees with the corner map on surviving corners
    worst = 0.0
    for level in range(1, args.depth + 1):
        count = tree.count(level)
        idx = rng.integers(0, count, size=min(50, count))
        src, img = substitution.level_table(ftree, level, idx)
        us = corner_floats(params.m, src, level)
        fws = corner_floats(params.m, img, ftree.tilde_lengths[level][idx])
        fus = globalmap.f_global(ftree, us, level)
        worst = max(worst, float(np.max(np.abs(fus - fws))))
    results["corner_agreement_max"] = worst
    ok &= worst <= 1e-9

    lines = [
        f"core-boundary branch agreement: {branch_err:.3e} "
        f"{'PASS' if branch_err <= 1e-12 else 'FAIL'}",
        f"cube-boundary identity: {bide:.3e} {'PASS' if bide == 0.0 else 'FAIL'}",
        f"distortion bracket: {bracket:.3f} (bound {bound:.0f}) "
        f"{'PASS' if bracket <= bound else 'FAIL'}",
        f"corner-map agreement: {worst:.3e} {'PASS' if worst <= 1e-9 else 'FAIL'}",
    ]
    return _finish_check(
        args,
        "check global",
        _config_dict(params, args, depth=args.depth),
        results,
        bool(ok),
        lines,
    )


# --- wiring ------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on the first call and shared after it:
    parse_args fills a fresh namespace each time, so calls do not leak."""
    parser = _Parser(prog="percoqs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample a tree to JSON")
    _add_param_flags(p_sample)
    p_sample.add_argument(
        "--nonextinct", action="store_true", help="rejection-sample until non-extinct"
    )
    p_sample.set_defaults(func=cmd_sample)

    p_render = sub.add_parser("render", help="render tree levels to SVG")
    p_render.add_argument("--tree", required=True, help="tree JSON file")
    p_render.add_argument("--levels", default="1,2,3")
    p_render.add_argument(
        "--image", action="store_true", help="draw image boxes instead of survivors"
    )
    p_render.add_argument("--px", type=int, default=220)
    p_render.add_argument("--out", "-o", default=None)
    p_render.set_defaults(func=cmd_render)

    p_solve = sub.add_parser("solve", help="closed-form exponents")
    solve_sub = p_solve.add_subparsers(dest="what", required=True)
    p_t = solve_sub.add_parser("t", help="zero-growth exponent and gap")
    _add_param_flags(p_t)
    p_t.set_defaults(func=cmd_solve_t)
    p_eps = solve_sub.add_parser("epsilon-table", help="near-critical thresholds")
    p_eps.add_argument("--out", "-o", default=None)
    p_eps.set_defaults(func=cmd_solve_epsilon_table)
    p_kappa = solve_sub.add_parser("kappa", help="contraction factors")
    _add_param_flags(p_kappa)
    p_kappa.add_argument("--s", type=float, required=True)
    p_kappa.set_defaults(func=cmd_solve_kappa)

    p_check = sub.add_parser("check", help="self-verification")
    check_sub = p_check.add_subparsers(dest="what", required=True)
    for name, fn in (
        ("oracle", cmd_check_oracle),
        ("martingale", cmd_check_martingale),
        ("qs", cmd_check_qs),
        ("dims", cmd_check_dims),
        ("global", cmd_check_global),
    ):
        pc = check_sub.add_parser(name)
        _add_param_flags(pc)
        if name == "martingale":
            pc.add_argument("--s", type=float, default=None)
            pc.add_argument("--level", type=int, default=None)
        if name == "qs":
            pc.add_argument("--trees", type=int, default=5)
        if name == "dims":
            pc.add_argument("--grid-lo", type=float, default=1.3)
            pc.add_argument("--grid-hi", type=float, default=1.9)
            pc.add_argument("--grid-step", type=float, default=0.05)
        pc.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, PreconditionError) as exc:
        print(f"percoqs: parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"percoqs: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"percoqs: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
