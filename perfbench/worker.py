"""One benchmark process for one workload.

Started by run.py, never by hand.  It sets up (imports percoqs and numpy
from the checkout's src/, makes its output directory, builds the label
tables and GeomConfig of every parameter set the workload uses), prints
``ready <time.monotonic()>`` and, unless --setup-only, runs passes of the
workload through percoqs.cli.main in this process until --seconds have
passed.  Every op's output is checked; the last stdout line is one JSON
object for run.py.

With --trace 1 the first half of the time runs untraced passes and the
second half traced ones; spans go to .perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
PROBE_ROUNDS = 200_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python sha256 chain; host speed, for the
    record only, never used to rescale a metric."""
    h = hashlib.sha256
    x = b"percoqs"
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        x = h(x).digest()
    return time.perf_counter() - t0


def machine_facts(numpy_version: str) -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def setup(workload):
    """Everything a user pays for before the first command does work."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import percoqs
    import percoqs.cli

    if Path(percoqs.__file__).resolve().parent != (src / "percoqs").resolve():
        raise SystemExit(f"perfbench: imported percoqs from {percoqs.__file__}, "
                         f"not from {src}")
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR / "tmp")
    for m, d, p in workload.params:
        percoqs.GeomConfig(percoqs.Params(m=m, d=d, p=p))
    return percoqs, directory


def run_op(cli, argv: list[str]):
    """(exit code, or None on an uncaught exception; captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # an op that crashes counts as failed; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, err.getvalue()


def variant_of(pass_index: int) -> int:
    """Input variant of a pass: 0, 0, 1, 2, 3, ..."""
    return max(0, pass_index - 1)


class Checker:
    """Checks each op's output.  Outputs are keyed by variant and file;
    one seen before must repeat byte for byte, so each is checked in
    depth only the first time."""

    def __init__(self, percoqs):
        self.percoqs = percoqs
        self.first: dict[str, tuple[str | None, str | None]] = {}
        self.trees: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.kinds: dict[str, str] = {}
        self.sizes: dict[str, int] = {}

    def op(self, op, variant: int, rc, stderr: str, directory: str) -> int:
        """Check one op; returns the bytes it wrote."""
        self.attempted += 1
        key = f"{variant}/{op.out}"
        path = Path(directory) / op.out
        data = path.read_bytes() if path.is_file() else None
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        if rc != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            problem = f"exit code {rc}: {last[0]}"
        elif key in self.first:
            first_digest, problem = self.first[key]
            if digest != first_digest:
                problem = "output differs from an earlier pass"
        else:
            try:
                problem = self._deep(op, variant, data)
            except Exception as exc:  # a malformed output fails its op only
                problem = f"check raised {exc!r}"
        self.first.setdefault(key, (digest, problem))
        if problem:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv[:2])} -> {key}: {problem}")
        if variant == 0:
            self.kinds[op.out] = op.kind
            self.sizes[op.out] = len(data) if data is not None else 0
        return len(data) if data is not None else 0

    def _deep(self, op, variant: int, data: bytes | None) -> str | None:
        if data is None:
            return "no output file"
        if op.kind == "report":
            if json.loads(data).get("pass") is not True:
                return 'report does not say "pass": true'
        elif op.kind == "tree":
            tree = self.percoqs.tree_from_json_dict(json.loads(data))
            if tree.to_canonical_bytes() != data:
                return "tree read back does not re-serialise to the same bytes"
            self.trees[f"{variant}/{op.out}"] = tree
        elif op.kind == "svg":
            tree = self.trees.get(f"{variant}/{op.tree}")
            if tree is None:
                return f"its tree {op.tree} failed"
            want = len(op.levels) + sum(tree.count(l) for l in op.levels)
            got = data.count(b"<rect")
            if got != want:
                return f"{got} <rect> elements, expected {want}"
        return None

    def outputs(self) -> dict[str, dict]:
        """Per output kind of variant 0: files, bytes, and a sha256 over
        the files' digests in op order (information only: a sampler
        change is allowed to change trees)."""
        out = {}
        for name, kind in self.kinds.items():
            entry = out.setdefault(kind, {"files": 0, "bytes": 0, "sha": hashlib.sha256()})
            entry["files"] += 1
            entry["bytes"] += self.sizes[name]
            entry["sha"].update((self.first[f"0/{name}"][0] or "-").encode())
        for entry in out.values():
            entry["sha"] = entry["sha"].hexdigest()
        return out


def run_passes(cli, ops, seed, directory, checker, until, tracer=None):
    """Run whole passes, at least one, while the next is expected to end
    before the monotonic clock reaches `until`; returns each pass's wall
    seconds and, when traced, its variant and work counts."""
    walls, counts = [], []
    pass_nid = tracer.name_id("bench.pass") if tracer else None
    op_nid = tracer.name_id("bench.op") if tracer else None
    while True:
        variant = variant_of(len(walls))
        results = []
        if tracer:
            tracer.counts.clear()
            pass_sid = tracer.open(pass_nid)
        t0 = time.perf_counter()
        for op in ops:
            if tracer:
                sid = tracer.open(op_nid)
            results.append(run_op(cli, op.concrete(seed, variant, directory)))
            if tracer:
                tracer.close(sid)
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close(pass_sid)
            # the pass span is the traced wall, so self times add up to it
            wall = (tracer.end[pass_sid] - tracer.start[pass_sid]) / 1e9
            tracer.enabled = False
        walls.append(wall)
        for op, (rc, err) in zip(ops, results):
            written = checker.op(op, variant, rc, err, directory)
            if tracer:
                tracer.counts["cli.out_bytes"] += written
                if op.kind == "svg":
                    tree_file = Path(directory) / op.tree
                    if tree_file.is_file():
                        tracer.counts["percolation.read.bytes"] += tree_file.stat().st_size
        if tracer:
            counts.append((variant, dict(tracer.counts)))
            tracer.pass_index += 1
            tracer.enabled = True
        if time.monotonic() + statistics.mean(walls) > until:
            return walls, counts


def write_spans(tracer, header: dict) -> Path:
    path = OUT_DIR / f"spans-{header['workload']}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in tracer.span_rows():
            fh.write(json.dumps(row) + "\n")
    return path


def traced_layers(tracer, walls, traced_walls, counts, checker) -> dict:
    first = {}
    for variant, c in counts:
        if first.setdefault(variant, c) != c:
            checker.failed += 1
            checker.failures.append(f"work counts of variant {variant} differ "
                                    "between traced passes")
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    per_pass = [
        tracing.layer_metrics(tracing.pass_layers(tracer, i), counts[i][1], overhead)
        for i in range(len(traced_walls))
    ]
    return {name: statistics.median(p[name] for p in per_pass)
            for name, *_ in tracing.LAYER_METRICS}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    percoqs, directory = setup(workload)
    print(f"ready {time.monotonic()!r}", flush=True)
    try:
        if args.setup_only:
            return 0
        import numpy

        probe_before = host_probe()
        start = time.monotonic()
        ops = workload.ops(args.size)
        checker = Checker(percoqs)
        share = 0.5 if args.trace else 1.0
        walls, _ = run_passes(percoqs.cli, ops, args.seed, directory, checker,
                              start + share * args.seconds)
        result = {"walls": walls}
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, percoqs)
            try:
                traced_walls, counts = run_passes(
                    percoqs.cli, ops, args.seed, directory, checker,
                    start + args.seconds, tracer)
            finally:
                tracing.uninstall(restore)
            result["traced_walls"] = traced_walls
            result["layers"] = traced_layers(tracer, walls, traced_walls, counts, checker)
            result["counts"] = counts[0][1]
            result["spans_file"] = str(write_spans(tracer, {
                "workload": args.workload, "seed": args.seed, "size": args.size,
                "run_id": f"{args.workload}-{args.seed}-{os.getpid()}",
                "pass_walls_ns": tracer.root_durations(),
            }).relative_to(ROOT))
        result.update(
            attempted=checker.attempted,
            failed=checker.failed,
            failures=checker.failures,
            outputs=checker.outputs(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            probe_s=[probe_before, host_probe()],
            machine=machine_facts(numpy.__version__),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
