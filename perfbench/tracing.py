"""Per-layer spans recorded from outside the program.

install() wraps the public functions of the percoqs layer modules, and
the public methods of PercTree, at every module attribute through which
they are reached, so calls made inside the package pass through the
wrappers too.  Each call records one span: name, start, end, parent span
and the traced pass it belongs to.  Spans live in flat integer arrays
until the run ends.

A few public helpers are left unwrapped: they run once per letter, per
lattice point or per bisection step, so a span each would cost more than
the work it measures.  Their time stays in the caller's self time.

layer_metrics() turns one pass's spans and counts into the per-layer
metrics; LAYER_METRICS lists them with the end-to-end metric and workload
each one should move.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("percolation", "substitution", "lattice", "globalmap", "analysis", "cli")

LEAF_HELPERS = {
    "lattice": {
        "validate_label", "validate_word", "label_to_offset", "offset_to_label",
        "is_boundary_label", "boundary_label_count", "word_meet", "is_prefix",
        "default_eta",
    },
    "percolation": {
        "PercTree.count", "PercTree.child_range", "PercTree.child_labels",
        "PercTree.child_index",
    },
    "analysis": {"kappa", "kappa_prime", "log_base", "zero_slope"},
}

# (name, unit, better, should move)
LAYER_METRICS = (
    ("percolation.sample.candidates", "count", "lower", "wall_s on verify"),
    ("percolation.sample.busy_s", "s", "lower", "wall_s on verify"),
    ("percolation.sample.ns_per_candidate", "ns", "lower", "wall_s on verify"),
    ("percolation.sample.accept_ratio", "ratio", "higher", "wall_s on verify"),
    ("percolation.words.ns_per_word", "ns", "lower", "wall_s on tree_roundtrip"),
    ("percolation.write.busy_s", "s", "lower", "wall_s on tree_roundtrip"),
    ("percolation.write.bytes", "bytes", "lower", "wall_s on tree_roundtrip"),
    ("percolation.write.ns_per_byte", "ns", "lower", "wall_s on tree_roundtrip"),
    ("percolation.read.busy_s", "s", "lower", "wall_s on tree_roundtrip"),
    ("percolation.read.ns_per_byte", "ns", "lower", "wall_s on tree_roundtrip"),
    ("substitution.flags.ns_per_node", "ns", "lower", "wall_s on all workloads (small share)"),
    ("substitution.flags.flagged_frac", "ratio", "lower", "wall_s on all workloads (small share)"),
    ("substitution.cover.busy_s", "s", "lower", "wall_s on tree_roundtrip"),
    ("substitution.cover.ns_per_box", "ns", "lower", "wall_s on tree_roundtrip"),
    ("substitution.exact_ratio.calls", "count", "lower", "wall_s on verify"),
    ("substitution.exact_ratio.us_per_call", "us", "lower", "wall_s on verify"),
    ("lattice.pi_finite.calls", "count", "lower", "wall_s on tree_roundtrip"),
    ("lattice.pi_finite.busy_s", "s", "lower", "wall_s on tree_roundtrip"),
    ("globalmap.g_batch.points", "count", "lower", "wall_s on verify"),
    ("globalmap.g_batch.ns_per_point", "ns", "lower", "wall_s on verify"),
    ("globalmap.f_global.calls", "count", "lower", "wall_s on verify"),
    ("globalmap.f_global.us_per_call", "us", "lower", "wall_s on verify"),
    ("analysis.martingale.node_trials", "count", "lower", "wall_s and peak_rss_mb on verify"),
    ("analysis.martingale.busy_s", "s", "lower", "wall_s and peak_rss_mb on verify"),
    ("analysis.martingale.ns_per_node_trial", "ns", "lower", "wall_s and peak_rss_mb on verify"),
    ("analysis.oracle.configs", "count", "lower", "wall_s on verify"),
    ("analysis.oracle.busy_s", "s", "lower", "wall_s on verify"),
    ("analysis.qs_scan.self_s", "s", "lower", "wall_s on verify"),
    ("analysis.dims.fit_self_s", "s", "lower", "wall_s on verify"),
    ("cli.render_svg.self_s", "s", "lower", "wall_s on tree_roundtrip"),
    ("cli.render_svg.rects", "count", "lower", "wall_s on tree_roundtrip"),
    ("cli.self_s", "s", "lower", "wall_s on tree_roundtrip"),
    ("cli.out_bytes", "bytes", "lower", "wall_s on tree_roundtrip"),
    ("trace.overhead_frac", "ratio", "lower", "none; the cost of tracing"),
)


class Tracer:
    """Spans of one traced run, in parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self._stack: list[int] = []
        self.pass_index = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        # off while the benchmark checks outputs with the program's own
        # functions, so those calls leave no spans
        self.enabled = True

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.pass_index)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def root_durations(self) -> list[int]:
        """Nanoseconds of each parentless span, in order."""
        return [self.end[i] - self.start[i]
                for i in range(len(self.start)) if self.parent[i] == -1]

    def span_rows(self):
        """(name, start_ns, end_ns, parent, pass) for every span."""
        for i in range(len(self.start)):
            yield (self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.run[i])


# Work counts read from a call's arguments and result, at the same
# boundary as its span.

def _count_sample(c, args, tree):
    a = tree.params.alphabet_size
    sizes = [lab.shape[0] for lab in tree.labels]
    c["percolation.sample.candidates"] += a * sum(sizes[:-1])
    c["percolation.sample.nonextinct"] += int(sizes[-1] > 0)
    for level, n in enumerate(sizes):
        c[f"percolation.sample.survivors.{level}"] += n


def _count_flags(c, args, ftree):
    c["substitution.flags.nodes"] += sum(f.shape[0] for f in ftree.flags)
    c["substitution.flags.flagged"] += sum(int(f.sum()) for f in ftree.flags)


def _adds(key, measure):
    def hook(c, args, result):
        c[key] += measure(args, result)
    return hook


HOOKS = {
    "percolation.sample_tree": _count_sample,
    "percolation.sample_nonextinct": _adds(
        "percolation.sample.rejections", lambda a, r: r[1]),
    "percolation.PercTree.words": _adds("percolation.words", lambda a, r: len(r)),
    "percolation.PercTree.to_canonical_bytes": _adds(
        "percolation.write.bytes", lambda a, r: len(r)),
    "substitution.compute_flags": _count_flags,
    "substitution.image_cover": _adds("substitution.cover.boxes", lambda a, r: len(r)),
    "globalmap.g_batch": _adds("globalmap.g_batch.points", lambda a, r: len(r)),
    "analysis.martingale_check": _adds(
        "analysis.martingale.node_trials", lambda a, r: r.level_count * r.trials),
    "analysis.level1_oracle": _adds(
        "analysis.oracle.configs", lambda a, r: 2 ** a[0].alphabet_size),
    "cli.render_svg": _adds("cli.render_svg.rects", lambda a, r: r.count("<rect")),
}


def _wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer.counts, args, result)
        return result

    return traced


def _targets(package):
    """(span name, function) for every callable to wrap."""
    out = []
    for short in MODULES:
        mod = getattr(package, short)
        skip = LEAF_HELPERS.get(short, set())
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in skip):
                out.append((f"{short}.{attr}", obj))
    perc = package.percolation
    for attr, obj in vars(perc.PercTree).items():
        name = f"PercTree.{attr}"
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and name not in LEAF_HELPERS["percolation"]):
            out.append((f"percolation.{name}", obj))
    return out


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap every target wherever the package's modules reference it.

    Returns (owner, attribute, original) triples for uninstall().
    """
    wrappers = {fn: _wrapper(tracer, name, fn) for name, fn in _targets(package)}
    restore = []
    owners = [m for n, m in sys.modules.items()
              if n == package.__name__ or n.startswith(package.__name__ + ".")]
    owners.append(package.percolation.PercTree)
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(owner, attr, wrappers[obj])
                restore.append((owner, attr, obj))
    return restore


def uninstall(restore) -> None:
    for owner, attr, obj in restore:
        setattr(owner, attr, obj)


def pass_layers(tracer: Tracer, pass_index: int) -> dict[str, dict]:
    """Busy time, self time and call count per span name for one pass."""
    ids = [i for i in range(len(tracer.start)) if tracer.run[i] == pass_index]
    child = defaultdict(int)
    for i in ids:
        p = tracer.parent[i]
        if p >= 0:
            child[p] += tracer.end[i] - tracer.start[i]
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
    for i in ids:
        dur = tracer.end[i] - tracer.start[i]
        s = stats[tracer.names[tracer.name[i]]]
        s["calls"] += 1
        s["busy_ns"] += dur
        s["self_ns"] += dur - child[i]
    return stats


def _per(num: float, den: float, scale: float) -> float:
    """num * scale / den, or 0 when the workload has no such work."""
    return num * scale / den if den else 0.0


def layer_metrics(stats: dict, counts: dict, overhead_frac: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one pass's span stats and counts."""
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0}

    def busy(name):
        return stats.get(name, empty)["busy_ns"] / 1e9

    def selft(name):
        return stats.get(name, empty)["self_ns"] / 1e9

    def calls(name):
        return stats.get(name, empty)["calls"]

    cand = counts.get("percolation.sample.candidates", 0)
    wbytes = counts.get("percolation.write.bytes", 0)
    nodes = counts.get("substitution.flags.nodes", 0)
    points = counts.get("globalmap.g_batch.points", 0)
    node_trials = counts.get("analysis.martingale.node_trials", 0)
    sample_s = busy("percolation.sample_tree")
    write_s = busy("percolation.PercTree.to_canonical_bytes")
    read_s = busy("percolation.tree_from_json_dict")
    cover_s = busy("substitution.image_cover")
    mart_s = busy("analysis.martingale_check")
    values = {
        "percolation.sample.candidates": cand,
        "percolation.sample.busy_s": sample_s,
        "percolation.sample.ns_per_candidate": _per(sample_s, cand, 1e9),
        "percolation.sample.accept_ratio": _per(
            counts.get("percolation.sample.nonextinct", 0),
            calls("percolation.sample_tree"), 1.0),
        "percolation.words.ns_per_word": _per(
            busy("percolation.PercTree.words"), counts.get("percolation.words", 0), 1e9),
        "percolation.write.busy_s": write_s,
        "percolation.write.bytes": wbytes,
        "percolation.write.ns_per_byte": _per(write_s, wbytes, 1e9),
        "percolation.read.busy_s": read_s,
        "percolation.read.ns_per_byte": _per(
            read_s, counts.get("percolation.read.bytes", 0), 1e9),
        "substitution.flags.ns_per_node": _per(
            busy("substitution.compute_flags"), nodes, 1e9),
        "substitution.flags.flagged_frac": _per(
            counts.get("substitution.flags.flagged", 0), nodes, 1.0),
        "substitution.cover.busy_s": cover_s,
        "substitution.cover.ns_per_box": _per(
            cover_s, counts.get("substitution.cover.boxes", 0), 1e9),
        "substitution.exact_ratio.calls": calls("substitution.comparability_ratio"),
        "substitution.exact_ratio.us_per_call": _per(
            busy("substitution.comparability_ratio"),
            calls("substitution.comparability_ratio"), 1e6),
        "lattice.pi_finite.calls": calls("lattice.pi_finite"),
        "lattice.pi_finite.busy_s": busy("lattice.pi_finite"),
        "globalmap.g_batch.points": points,
        "globalmap.g_batch.ns_per_point": _per(busy("globalmap.g_batch"), points, 1e9),
        "globalmap.f_global.calls": calls("globalmap.f_global"),
        "globalmap.f_global.us_per_call": _per(
            busy("globalmap.f_global"), calls("globalmap.f_global"), 1e6),
        "analysis.martingale.node_trials": node_trials,
        "analysis.martingale.busy_s": mart_s,
        "analysis.martingale.ns_per_node_trial": _per(mart_s, node_trials, 1e9),
        "analysis.oracle.configs": counts.get("analysis.oracle.configs", 0),
        "analysis.oracle.busy_s": busy("analysis.level1_oracle"),
        "analysis.qs_scan.self_s": selft("analysis.qs_ratio_scan"),
        "analysis.dims.fit_self_s": selft("analysis.estimate_dims"),
        "cli.render_svg.self_s": selft("cli.render_svg"),
        "cli.render_svg.rects": counts.get("cli.render_svg.rects", 0),
        "cli.self_s": sum(s["self_ns"] for n, s in stats.items()
                          if n.startswith("cli.") and n != "cli.render_svg") / 1e9,
        "cli.out_bytes": counts.get("cli.out_bytes", 0),
        "trace.overhead_frac": overhead_frac,
    }
    return values
