"""Smoke test of the benchmark itself, at the tiny workload size.

    python3 -m pytest perfbench/selftest.py

Not named test_*.py so the package's test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert END_TO_END == {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_prints_end_to_end(workload):
    rc, lines = bench(ROOT, workload, HELDOUT_SEED, 0)
    assert rc == 0
    res = result_of(lines)
    assert {n: m["unit"] for n, m in res["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    assert printed == {**END_TO_END, "fail_frac": "ratio"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_spans_and_counts(workload):
    runs = []
    for _ in range(2):
        rc, lines = bench(ROOT, workload, DEFAULT_SEED, 1)
        assert rc == 0
        res = result_of(lines)
        assert {n: m["unit"] for n, m in res["metrics"].items()} == PER_LAYER
        counts = [json.loads(l[len("counts "):]) for l in lines if l.startswith("counts ")]
        runs.append(counts[0])

        path = ROOT / ".perfbench" / f"spans-{workload}.jsonl"
        header, *rows = [json.loads(l) for l in path.read_text().splitlines()]
        self_ns = [end - start for _, start, end, _, _ in rows]
        for i, (name, start, end, parent, run) in enumerate(rows):
            assert start <= end
            if parent == -1:
                assert name == "bench.pass"
                continue
            # a parent opens before its children and encloses them
            assert 0 <= parent < i
            _, p_start, p_end, _, p_run = rows[parent]
            assert p_start <= start and end <= p_end and p_run == run
            self_ns[parent] -= end - start
        assert min(self_ns) >= 0
        for run, wall_ns in enumerate(header["pass_walls_ns"]):
            assert sum(s for s, row in zip(self_ns, rows) if row[4] == run) <= wall_ns
    assert runs[0] == runs[1], "work counts differ between runs of one seed"


def test_refuses_without_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench(bare, "verify", DEFAULT_SEED, 0)
        assert rc != 0
        assert not any(line.startswith("{") for line in lines)
