"""percoqs benchmark: time to a verified answer on two CLI workloads.

    python3 perfbench/run.py --workload {tree_roundtrip,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from src/.  One
fresh worker process runs the workload's CLI commands in-process through
percoqs.cli.main with --workers 1, pass after pass, for S seconds, and
checks every output.  Before it, a few set-up-only workers are started to
time set-up.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 prints the per-layer metrics of perfbench/tracing.py, from
spans recorded around the program's public functions.  Both print
fail_frac with the attempted and failed op counts.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero, printing no result, when there is no percoqs source tree
or a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, SEED_STRIDE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6
DEADLINE_S = 170.0
# every CLI seed, seed * SEED_STRIDE + variant * VARIANT_STRIDE + offset,
# must stay below 2^64
MAX_SEED = 2**64 // SEED_STRIDE - 1


class BenchError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run a worker; returns (seconds from spawn to ready, its result)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} overran the deadline") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - t_spawn
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    return setup_s, result


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, setups: list[float], res: dict) -> dict:
    """Print the human-readable lines; return the metrics object."""
    attempted, failed = res["attempted"], res["failed"]
    walls = res["walls"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}  passes {len(walls)}")
    print("pass_walls_s " + json.dumps([round(w, 4) for w in walls]))
    if args.trace:
        rows = [(n, res["layers"][n], u) for n, u, *_ in tracing.LAYER_METRICS]
        detail = {}
    else:
        rows = [
            ("setup_s", statistics.median(setups), "s"),
            ("wall_s", statistics.median(walls), "s"),
            ("peak_rss_mb", res["peak_rss_mb"], "MB"),
        ]
        detail = {
            "setup_s": f"median of {len(setups)} process starts, "
                       f"min {min(setups):.4f} max {max(setups):.4f}",
            "wall_s": f"median of {len(walls)} passes, "
                      f"min {min(walls):.4f} max {max(walls):.4f}",
            "peak_rss_mb": "ru_maxrss of the worker",
        }
    for name, value, unit in rows:
        print(f"  {name:40s} {fmt(value):>14s} {unit:6s} {detail.get(name, '')}")
    print(f"  {'fail_frac':40s} {fmt(failed / attempted):>14s} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted ops")
    for failure in res["failures"]:
        print(f"failure: {failure}")
    if args.trace:
        print(f"trace: passes untraced {len(walls)} traced {len(res['traced_walls'])}, "
              f"spans in {res['spans_file']}")
        print("counts " + json.dumps(res["counts"], sort_keys=True))
    print("outputs " + json.dumps(res["outputs"], sort_keys=True))
    print("host " + json.dumps({**res["machine"], "probe_s_before_after": res["probe_s"]}))
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        ap.error(f"--seed must lie in [0, {MAX_SEED})")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "percoqs" / "__init__.py").is_file():
        print(f"perfbench: no percoqs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--size", args.size]
    try:
        setups = [spawn([*common, "--setup-only"], deadline)[0]
                  for _ in range(SETUP_PROBES - 1)]
        setup_s, res = spawn([*common, "--seed", str(args.seed), "--seconds",
                              str(args.seconds), "--trace", str(args.trace)], deadline)
        if res is None:
            raise BenchError("the workload worker printed no result")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    setups.append(setup_s)
    metrics = report(args, setups, res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
