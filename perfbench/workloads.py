"""Workloads of the percoqs benchmark.

A workload is the list of CLI invocations of one pass.  Every command
runs with --workers 1.  In pass variant v of benchmark seed s an op gets
the CLI seed s * SEED_STRIDE + v * VARIANT_STRIDE + its offset, so the
benchmark seed alone fixes every input and no two ops share a tree
(sample --nonextinct moves on to seed+1, seed+2, ... after an extinct
tree, hence the gaps).  worker.py runs variant 0 twice, to check that
outputs repeat byte for byte, then variants 1, 2, ... once each, so a
run's median pass time covers several independent inputs.

The size of one percolation tree varies a lot from seed to seed: across
seeds, the interquartile range of the node count is about 70% of its
median at p=0.4 and 30% at p=0.7.  So a pass covers many trees and the
time of a pass is nearly the same for every seed: tree_roundtrip
round-trips 128 trees, and verify's dims check fits 100 and its qs scan
samples 10.

The one exception is verify's martingale check.  Its time and peak
memory follow the width of a single tree, and its peak RSS also jumps by
60 MB with the number of resampling chunks, so it always runs on the
tree of CLI seed 0; the workload's other checks take the seed.

The dims check runs at p=0.5, not the default 0.7.  At p=0.7 and K=1
the true gap between t and s is 5.6e-6, below the error of t_hat's interpolation
on the s grid, so "t_hat < s_hat" failed for 1 of 48 seeds at depth 5
and passed by as little as 2e-6 at depth 6.  At p=0.5 the gap is 3e-4
and the check passed for 24 of 24 seeds with margins of at least 1.7e-4.

Each op names the file it writes and how that file is checked:

    report  a percoqs-report/1 file that must say "pass": true
    tree    a percoqs-tree/1 file that must read back and re-serialise
            to the same bytes
    svg     a rendering whose <rect> count must be one frame per panel
            plus the survivor count of each drawn level of its tree

"full" is the measured size; "tiny" exists for the benchmark's own smoke
test and is never timed.

This module imports nothing from percoqs, so run.py can list workloads
without paying for numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed the benchmark is tuned on, and one kept aside to confirm a
# result does not depend on it.
DEFAULT_SEED = 0
HELDOUT_SEED = 7919

SEED_STRIDE = 1_000_000_000
VARIANT_STRIDE = 1_000_000
TREE_GAP = 1_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation; argv holds {seed} and {dir} placeholders."""

    argv: tuple[str, ...]
    out: str
    kind: str
    tree: str | None = None
    levels: tuple[int, ...] = ()
    seed_offset: int = 0

    def concrete(self, seed: int, variant: int, directory: str) -> list[str]:
        cli_seed = seed * SEED_STRIDE + variant * VARIANT_STRIDE + self.seed_offset
        return [a.format(seed=cli_seed, dir=directory) for a in self.argv]


def _check(what: str, *flags: str, seed: str = "{seed}") -> Op:
    out = f"{what}.json"
    argv = ("check", what, *flags, "--seed", seed, "--workers", "1",
            "-o", "{dir}/" + out)
    return Op(argv, out, "report")


def _roundtrips(trees: int, depth: int, levels: tuple[int, ...]) -> tuple[Op, ...]:
    """Per tree: sample it, then render its levels plain and as the image
    cover, reading the tree file back each time."""
    lv = ",".join(str(l) for l in levels)
    ops = []
    for i in range(trees):
        tree = f"tree{i}.json"
        ops.append(Op(("sample", "--p", "0.4", "--depth", str(depth), "--nonextinct",
                       "--seed", "{seed}", "--workers", "1", "-o", "{dir}/" + tree),
                      tree, "tree", seed_offset=i * TREE_GAP))
        for extra, out in (((), f"levels{i}.svg"), (("--image",), f"image{i}.svg")):
            ops.append(Op(("render", "--tree", "{dir}/" + tree, "--levels", lv, *extra,
                           "-o", "{dir}/" + out), out, "svg", tree, levels))
    return tuple(ops)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (M, d, p) of every parameter set the ops use; set-up builds their
    # label tables and GeomConfig before the first timed op
    params: tuple[tuple[int, int, float], ...]
    full: tuple[Op, ...]
    tiny: tuple[Op, ...]

    def ops(self, size: str) -> tuple[Op, ...]:
        return self.full if size == "full" else self.tiny


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree_roundtrip",
            "128 x (sample --p 0.4 --depth 5 --nonextinct; render levels 3,4,5; "
            "render --image): tree JSON write and read, words, image_cover with "
            "insertions, pi_finite, SVG",
            ((3, 2, 0.4),),
            _roundtrips(128, 5, (3, 4, 5)),
            _roundtrips(3, 4, (2, 4)),
        ),
        Workload(
            "verify",
            "the five checks: dims --p 0.5 --depth 6 --trials 100; martingale --depth "
            "6 --trials 3000 --seed 0; qs and global at p=0.4 depth 8; oracle --M 4: "
            "sampler, analysis, globalmap, RSS",
            ((3, 2, 0.5), (3, 2, 0.7), (3, 2, 0.4), (4, 2, 0.7)),
            (
                _check("dims", "--p", "0.5", "--depth", "6", "--trials", "100"),
                _check("martingale", "--depth", "6", "--trials", "3000", seed="0"),
                _check("qs", "--p", "0.4", "--depth", "8", "--trees", "10"),
                _check("global", "--p", "0.4", "--depth", "8", "--trials", "400000"),
                _check("oracle", "--M", "4"),
            ),
            (
                # p=0.4: at depth 4 and p=0.7 most seeds flag no node, so the
                # fit cannot separate t_hat from s_hat and the check fails
                _check("dims", "--p", "0.4", "--depth", "4", "--trials", "100"),
                _check("martingale", "--depth", "4", seed="0"),
                _check("qs", "--p", "0.4", "--depth", "5", "--trees", "1",
                       "--trials", "200"),
                _check("global", "--p", "0.4", "--depth", "4", "--trials", "2000"),
                _check("oracle", "--M", "3"),
            ),
        ),
    )
}
