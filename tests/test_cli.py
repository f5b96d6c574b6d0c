"""Command-line interface: exit codes, report files, determinism and the
printed summaries."""

import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import (
    g_batch_reference,
    image_cover,
    render_svg_reference,
    tree_from_words,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import partition_sum_exact
from test_substitution import _past_int64_tree

from percoqs import analysis, cli, globalmap, substitution
from percoqs.cli import (
    EXIT_CAPACITY,
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _finish_check,
    _fixed4,
    build_parser,
    main,
    render_svg,
)
from percoqs.lattice import Params
from percoqs.percolation import (
    derive_seed,
    sample_nonextinct,
    sample_tree,
    tree_from_json_dict,
)
from percoqs.substitution import compute_flags, level_table


@pytest.fixture(autouse=True)
def _clean_budget_env(monkeypatch):
    monkeypatch.delenv("PERCOQS_NODE_BUDGET", raising=False)


# --- exit codes -----------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["solve", "kappa", "--M", "3"]) == EXIT_USAGE  # --s required
    assert main(["sample", "--p", "1.5"]) == EXIT_USAGE
    assert main(["sample", "--M", "2"]) == EXIT_USAGE
    assert main(["sample", "--workers", "0"]) == EXIT_USAGE
    assert main(["check", "martingale", "--depth", "3", "--level", "7",
                 "--trials", "200"]) == EXIT_USAGE
    capsys.readouterr()

    good = tmp_path / "good.json"
    assert main(["sample", "--depth", "2", "--seed", "2", "--nonextinct",
                 "-o", str(good)]) == EXIT_OK
    capsys.readouterr()
    header = {"format": "percoqs-tree/3", "M": 3, "d": 2, "p": 0.7, "K": 1,
              "eta": [9], "seed": 0, "depth": 1}
    bad_files = {
        "not-json.json": "not json at all",
        "no-fields.json": json.dumps({"format": "percoqs-tree/3"}),
    }
    # /1 and /2 word lists are no longer read; the one line names the format
    retired = {}
    for fmt in ("percoqs-tree/1", "percoqs-tree/2"):
        name = f"retired-{fmt[-1]}.json"
        bad_files[name] = json.dumps(
            {**header, "format": fmt, "survivors": [[[]], [[9]]]})
        retired[str(tmp_path / name)] = fmt
    # header fields are JSON integers (p a JSON number), never coerced
    for i, (key, value) in enumerate([
        ("M", 3.7), ("depth", 2.9), ("seed", 1.5), ("K", True), ("M", "3"),
        ("p", "0.7"), ("seed", -3), ("seed", 2**70), ("eta", [9.0]), ("p", False),
    ]):
        bad_files[f"header{i}.json"] = json.dumps(
            {**header, key: value, "levels": ["AIA="]})
    # /3 level masks: level 1 packs the root's 9 verdicts into 2 bytes, so
    # "AIA=" (label 9 alive) is valid and each entry below is not
    for i, levels in enumerate([
        [], ["AIA=", "AAA="],  # not exactly depth strings
        "AIA=", [9],  # not a list of strings
        ["A!A="], ["AIA"], ["AIA=\n"], ["ÄIA="],  # not strict base64
        ["AIB="],  # non-canonical trailing bits (decodes as "AIA=")
        ["AA=="], ["AAAA"],  # 1 and 3 bytes where 2 are needed
        ["AIE="],  # a padding bit set
    ]):
        bad_files[f"levels{i}.json"] = json.dumps({**header, "levels": levels})
    bad_files["levels-deeper.json"] = json.dumps(
        {**header, "depth": 2, "levels": ["AIA=", "AAAA"]})  # 1 parent, 2 bytes
    bad_files["no-levels.json"] = json.dumps(header)
    bad_inputs = [["solve", "t", "--eta", "1,x"],
                  ["solve", "t", "--eta", ""],
                  ["render", "--tree", str(good), "--levels", "1,a"],
                  ["render", "--tree", str(good), "--px", "0"],
                  ["render", "--tree", str(good), "--px", "-5"],
                  ["solve", "kappa", "--s", "-1"],
                  # s must be finite: at inf every term is 0 and would pass
                  ["solve", "kappa", "--s", "nan"],
                  ["check", "martingale", "--depth", "4", "--s", "inf"],
                  ["check", "martingale", "--depth", "4", "--s", "nan"],
                  ["check", "martingale", "--depth", "2", "--trials", "0"],
                  ["check", "qs", "--depth", "3", "--trees", "1", "--trials", "0"],
                  ["check", "qs", "--depth", "3", "--trees", "0"],
                  ["check", "qs", "--depth", "3", "--trees", "-1"],
                  ["check", "dims", "--depth", "3", "--trials", "0"],
                  ["check", "dims", "--depth", "3", "--grid-step", "0"],
                  ["check", "dims", "--depth", "3", "--grid-step", "nan"],
                  ["check", "dims", "--depth", "3", "--grid-lo", "nan"],
                  ["check", "dims", "--depth", "3", "--grid-hi", "inf"],
                  ["check", "global", "--depth", "2", "--trials", "0"],
                  ["check", "global", "--depth", "2", "--trials", "1"],
                  ["sample", "--depth", "1", "--node-budget", "0"],
                  ["sample", "--depth", "1", "--node-budget", "-1"],
                  # the outcome table's binomials pass the float range
                  ["check", "oracle", "--M", "5", "--d", "5"],
                  ["check", "martingale", "--M", "5", "--d", "5", "--depth", "1"],
                  # seeds outside [0, 2^64) are refused, never wrapped
                  ["sample", "--seed", "-1", "--depth", "2", "--nonextinct"],
                  ["check", "martingale", "--seed", "-1", "--depth", "2"],
                  ["check", "global", "--seed", str(2**64), "--depth", "2"]]
    for name, text in bad_files.items():
        (tmp_path / name).write_text(text)
        bad_inputs.append(["render", "--tree", str(tmp_path / name), "--levels", "1"])
    for argv in bad_inputs:
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("percoqs: parameter error: ") and err.count("\n") == 1
        assert retired.get(argv[2], "") in err
    for env in ("abc", "-1"):
        monkeypatch.setenv("PERCOQS_NODE_BUDGET", env)
        assert main(["sample", "--depth", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("percoqs: parameter error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "percoqs" in capsys.readouterr().out


def test_capacity_exit_2(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "t.json")
    argv = ["sample", "--depth", "5", "--seed", "0", "--out", out]
    assert main(argv + ["--node-budget", "50"]) == EXIT_CAPACITY
    monkeypatch.setenv("PERCOQS_NODE_BUDGET", "50")
    # the environment variable wins even over a generous flag
    assert main(argv + ["--node-budget", "10000000"]) == EXIT_CAPACITY
    capsys.readouterr()


def test_high_dimension_returns_at_once(capsys):
    # 3^40 candidates at level 1: the budget stops sampling before any
    # M^d array is built, and the default eta needs no label table
    assert main(["sample", "--M", "3", "--d", "40", "--depth", "1"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("percoqs: capacity: ") and err.count("\n") == 1
    assert main(["solve", "t", "--M", "3", "--d", "40"]) == EXIT_OK
    assert "s_hausdorff=39.675340475" in capsys.readouterr().out


def test_io_error_exit_3(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    assert main(["sample", "--depth", "2", "--out", missing]) == EXIT_IO
    assert main(["render", "--tree", str(tmp_path / "absent.json")]) == EXIT_IO
    capsys.readouterr()
    # an empty --out names no file, for every report alike
    for argv in (["solve", "t"], ["solve", "epsilon-table"], ["check", "oracle"]):
        assert main([*argv, "-o", ""]) == EXIT_IO, argv
        err = capsys.readouterr().err
        assert err.startswith("percoqs: io: ") and err.count("\n") == 1


def test_finish_check_exit_codes(capsys):
    args = Namespace(out=None)
    assert _finish_check(args, "check x", {}, {}, True, ["ok PASS"]) == EXIT_OK
    assert _finish_check(args, "check x", {}, {}, False, ["bad FAIL"]) == EXIT_CHECK_FAILED
    assert "bad FAIL" in capsys.readouterr().out


# --- sample ---------------------------------------------------------------


def test_sample_writes_canonical_tree(tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert main(["sample", "--depth", "3", "--seed", "5", "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "level 0: 1 survivors" in err
    data = out.read_bytes()
    obj = json.loads(data)
    assert obj["format"] == "percoqs-tree/3"
    assert obj["depth"] == 3 and obj["seed"] == 5
    # the strict reader takes back what sample wrote
    assert tree_from_json_dict(obj).to_canonical_bytes() == data


def test_sample_stdout_when_no_out(capsys):
    assert main(["sample", "--depth", "1", "--seed", "0"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["format"] == "percoqs-tree/3"


def test_sample_reruns_byte_identical(tmp_path, capsys):
    base = ["sample", "--depth", "4", "--seed", "3", "--nonextinct"]
    files = []
    for i, extra in enumerate(([], [], ["--workers", "4"])):
        out = tmp_path / f"t{i}.json"
        assert main(base + ["--out", str(out)] + extra) == EXIT_OK
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
    assert "non-extinct after" in capsys.readouterr().err


# --- render ----------------------------------------------------------------


def test_render_svg_structure(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    assert main(["sample", "--depth", "3", "--seed", "2", "--nonextinct",
                 "--out", str(tree_file)]) == EXIT_OK
    svg_file = tmp_path / "out.svg"
    assert main(["render", "--tree", str(tree_file), "--levels", "1,2",
                 "--out", str(svg_file)]) == EXIT_OK
    svg = svg_file.read_text()
    tree = sample_tree(Params(m=3, d=2, p=0.7), 3, json.loads(tree_file.read_bytes())["seed"])
    assert svg.startswith("<svg ")
    assert svg.count('fill="#30506d"') == tree.count(1) + tree.count(2)

    image_file = tmp_path / "img.svg"
    assert main(["render", "--tree", str(tree_file), "--levels", "2", "--image",
                 "--out", str(image_file)]) == EXIT_OK
    assert '#7d3c68' in image_file.read_text()

    assert main(["render", "--tree", str(tree_file), "--levels", "9"]) == EXIT_USAGE
    capsys.readouterr()


def _frozen_hand_trees():
    # the root keeps only the interior cell 9, so it is flagged
    flagged_root = tree_from_words(Params(m=3, d=2, p=0.7), 3, [
        [()],
        [(9,)],
        [(9, 1), (9, 3), (9, 9)],
        [(9, 1, 2), (9, 1, 9), (9, 3, 5), (9, 9, 9)],
    ])
    # K=2 with a custom eta; (2,) and (2, 13) keep only interior children
    custom_eta = tree_from_words(Params(m=4, d=2, p=0.5, k=2, eta=(16, 13)), 3, [
        [()],
        [(2,), (14,)],
        [(2, 13), (14, 1), (14, 15)],
        [(2, 13, 16), (14, 1, 4), (14, 15, 7), (14, 15, 14)],
    ])
    return flagged_root, custom_eta


def test_hand_tree_output_bytes_frozen():
    # digests of the tree file, the plain panels and the image panels;
    # the trees are built by hand, so a sampler change leaves them valid
    want = [
        ("366c0595c8a514e2c1b7d6d8a0730a8245b260a85b33b1629c23db1c98e996c1",
         "eac6ed9277528d2f43b61c360867d3587d57bcc84b1c5b261a7a33452ed46d52",
         "298a85bc5592a54c2d4462415d569ae597024de900a446634e4d7b211f55013f"),
        ("c0a1b13e8c36e90dcff3198fbc66094d3f364ee5fa8f1de9816b183cffcabf64",
         "70347c16c650ce67f36dea99ee948b3ae9bede7db431fd841d9b2d26bcd5fd21",
         "af38923a0ec819bb9559cbac92c24001b444c61dde1229f83011dd048b6d2de4"),
    ]
    for tree, digests in zip(_frozen_hand_trees(), want):
        levels = list(range(tree.depth + 1))
        outputs = (
            tree.to_canonical_bytes(),
            render_svg(tree, levels).encode("ascii"),
            render_svg(tree, levels, image=True).encode("ascii"),
        )
        assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == digests


def _benchmark_shaped_trees():
    """Two trees of the shape the render benchmark samples, and the M=4,
    K=2 custom-eta tree, all rendered at levels 3, 4 and 5."""
    trees = [sample_nonextinct(Params(m=3, d=2, p=0.4), 5, s)[0] for s in (0, 1)]
    trees.append(sample_nonextinct(Params(m=4, d=2, p=0.3, k=2, eta=(16, 13)), 5, 2)[0])
    return trees


def test_benchmark_shaped_svg_bytes_frozen():
    # digests of the plain and the image panels, recorded before the
    # panels were rounded, sorted and written in one pass
    want = [
        ("99ed89b5feb20d5dcad7d8ae6fc008d2ef36c326da3e896a02d400daa8da367e",
         "e0f6e6170b59ded64574108792856fe4eb143bf28addffb78958e9e724a4641e"),
        ("43f7b620a055da21f08d7c28ef5fbe9d36487eb8d349810e35479fc4c1e321f8",
         "d69784b0ef72c6c38dfdd7f5ea5a485d3f40011aeb0f1df2e66b802c1aefaed3"),
        ("428727e0518ccdd3ad0c529706e97db3ad98860b3fd4057c2d03f9ecfd112d17",
         "7a35f70877e575e5e680f6afd0c5ffea9bec88b44c552455fe3ef74593163ad2"),
    ]
    for tree, digests in zip(_benchmark_shaped_trees(), want):
        got = tuple(
            hashlib.sha256(render_svg(tree, [3, 4, 5], image=image).encode()).hexdigest()
            for image in (False, True)
        )
        assert got == digests


@pytest.mark.parametrize("chunk", [1, 7])
def test_render_svg_chunk_boundary(chunk, monkeypatch):
    # 19 + 75 + 285 + 19 rows: chunks of 1 and 7 rows split every panel
    tree = _benchmark_shaped_trees()[0]
    levels = [2, 3, 4, 2, 0]
    default = [render_svg(tree, levels, image=image) for image in (False, True)]
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for image, want in zip((False, True), default):
        assert render_svg(tree, levels, image=image) == want


def test_sweep_unpacks_each_level_once(monkeypatch):
    # compute_flags unpacks every level's mask exactly once; the tables,
    # f_global and pair_ratios read its sweep, and a render adds nothing
    # to the sweep of its own compute_flags
    tree = _benchmark_shaped_trees()[1]
    depth = tree.depth
    unpackbits = np.unpackbits
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return unpackbits(*args, **kwargs)

    monkeypatch.setattr(np, "unpackbits", counted)
    fresh = tree_from_json_dict(json.loads(tree.to_canonical_bytes()))
    ftree = compute_flags(fresh)
    assert len(calls) == depth
    for level in range(depth + 1):
        level_table(ftree, level)
    globalmap.f_global(ftree, np.full((5, 2), 0.3), depth)
    substitution.pair_ratios(ftree, depth, [[0, fresh.count(depth) - 1]])
    assert len(calls) == depth
    for image in (False, True):
        calls.clear()
        render_svg(fresh, [3, 1, 3, 2], image=image)
        assert len(calls) == depth


def test_render_depth_zero_image(tmp_path, capsys):
    # the root's image cell is the unit cube: no flags needed, same geometry
    tree_file = tmp_path / "t0.json"
    assert main(["sample", "--depth", "0", "-o", str(tree_file)]) == EXIT_OK
    svgs = []
    for extra in ([], ["--image"]):
        out = tmp_path / f"z{len(extra)}.svg"
        assert main(["render", "--tree", str(tree_file), "--levels", "0", *extra,
                     "-o", str(out)]) == EXIT_OK
        svgs.append(out.read_text())
    capsys.readouterr()
    plain, image = svgs
    assert image.count("<rect") == 2 and image.count('fill="#7d3c68"') == 1
    assert image == plain.replace('fill="#30506d"', 'fill="#7d3c68"')


def test_parser_built_once_without_leaking_flags(tmp_path, capsys):
    assert build_parser() is build_parser()
    tree_file = tmp_path / "t.json"
    assert main(["sample", "--depth", "3", "--seed", "2", "--nonextinct",
                 "-o", str(tree_file)]) == EXIT_OK
    plain = ["render", "--tree", str(tree_file), "--levels", "1,2"]
    build_parser.cache_clear()
    assert main(plain + ["-o", str(tmp_path / "alone.svg")]) == EXIT_OK
    assert main(plain + ["--image", "--px", "100",
                         "-o", str(tmp_path / "image.svg")]) == EXIT_OK
    assert main(plain + ["-o", str(tmp_path / "after.svg")]) == EXIT_OK
    capsys.readouterr()
    alone = (tmp_path / "alone.svg").read_bytes()
    assert b"#30506d" in alone and b"#7d3c68" not in alone
    assert (tmp_path / "after.svg").read_bytes() == alone


def test_render_rejects_3d():
    tree = sample_tree(Params(m=3, d=3, p=0.9), 1, 0)
    from percoqs.errors import DomainError

    with pytest.raises(DomainError):
        render_svg(tree, [1])


# --- the '%.4f' kernel and the reference renderer ------------------------------

# the largest float whose '%.4f' the kernel writes: |x| * 10^4 < 2^63
_FIXED4_EDGE = math.nextafter(2**63 / 10**4, 0.0)


def _assert_same_lines(got, want):
    """got == want, failing with the first differing line; a diff of
    texts this long takes minutes."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line = next(((g, w) for g, w in pairs if g != w), "differ in length")
        pytest.fail(f"first differing line (got, want): {line}")


def _assert_fixed4_matches(xs):
    """The kernel's fields of xs equal '%.4f' % x, one per line."""
    fields = _fixed4(np.asarray(xs, dtype=np.float64))
    newline = np.full((*fields.shape[:-1], 1), ord("\n"), dtype=np.uint8)
    rows = np.concatenate([fields, newline], axis=-1)
    got = rows[rows != 0].tobytes().decode("ascii")
    _assert_same_lines(got, "".join("%.4f\n" % x for x in xs))


def test_fixed4_domain_edge():
    assert Fraction(_FIXED4_EDGE) * 10**4 < 2**63
    assert Fraction(math.nextafter(_FIXED4_EDGE, math.inf)) * 10**4 >= 2**63
    xs = [_FIXED4_EDGE, -_FIXED4_EDGE, math.nextafter(_FIXED4_EDGE, 0.0)]
    _assert_fixed4_matches(xs)


def test_fixed4_ties_zeros_subnormals_and_negatives():
    # k / 32 * 10^4 = k * 312.5: exact binary ties, which go to the even neighbour
    xs = [k * 2.0**-j * f for j in range(1, 64) for k in range(1, 64, 2) for f in (1, 220)]
    xs += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**-15, 2.0**-14]
    # 5e-5 is a tie in decimal but not in binary; its neighbours sit at a shift of 63
    xs += [math.nextafter(5e-5, t) for t in (0.0, math.inf)] + [5e-5, 1.5e-4, 2.5e-4]
    xs += [-x for x in xs]
    _assert_fixed4_matches(xs)


def test_fixed4_integer_parts_up_to_the_domain_edge():
    xs = []
    for digits in range(1, 16):
        for whole in (10 ** (digits - 1), 10**digits - 1, 9 * 10 ** (digits - 1) + 7):
            for frac in (0.0, 0.00005, 0.00015, 0.5, 0.99994, 0.99995, 0.12345):
                xs.append(whole + frac)
    xs = [x for x in xs if x <= _FIXED4_EDGE]
    assert len(str(int(max(xs)))) == 15
    xs += [-x for x in xs]
    _assert_fixed4_matches(xs)


def test_fixed4_seeded_random_floats():
    rng = np.random.default_rng(7)
    xs = rng.random(10**5) * 10.0 ** rng.integers(-9, 15, 10**5)
    xs[rng.random(10**5) < 0.5] *= -1
    _assert_fixed4_matches(xs.tolist())


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-_FIXED4_EDGE, max_value=_FIXED4_EDGE))
def test_fixed4_matches_percent_format(x):
    _assert_fixed4_matches([x])


def _reference_tree(case):
    if case == "past_int64":
        return _past_int64_tree().tree
    if case == "depth0":
        return sample_tree(Params(m=3, d=2, p=0.7), 0, 0)
    if case == "extinct":  # levels 3 and 4 hold 2 and 0 survivors
        tree = sample_tree(Params(m=3, d=2, p=0.15), 4, 20)
        assert tree.count(3) == 2 and tree.count(4) == 0
        return tree
    pr, depth, seed = {
        "M3p45": (Params(m=3, d=2, p=0.45), 4, 17),
        "M3p25": (Params(m=3, d=2, p=0.25), 6, 0),
        "M4K2": (Params(m=4, d=2, p=0.3, k=2, eta=(16, 13)), 5, 2),
        "M5": (Params(m=5, d=2, p=0.2), 4, 3),
    }[case]
    return sample_nonextinct(pr, depth, seed)[0]


@pytest.mark.parametrize(
    "case", ["M3p45", "M3p25", "M4K2", "M5", "past_int64", "depth0", "extinct"]
)
def test_render_svg_matches_reference(case):
    tree = _reference_tree(case)
    depth = tree.depth
    # repeated and out of order, then every level
    for levels in ([depth, min(1, depth), depth], list(range(depth + 1))):
        for image in (False, True):
            for px in (1, 97, 220, 10**6):
                _assert_same_lines(
                    render_svg(tree, levels, image=image, px=px),
                    render_svg_reference(tree, levels, image=image, px=px),
                )


def test_render_canvas_width_guard(tmp_path, capsys):
    tree_file = tmp_path / "t0.json"
    assert main(["sample", "--depth", "0", "-o", str(tree_file)]) == EXIT_OK
    tree = tree_from_json_dict(json.loads(tree_file.read_bytes()))
    base = ["render", "--tree", str(tree_file), "--levels", "0", "--px"]
    # one panel is px + 2 * 14 wide; coordinates are written while
    # width * 10^4 < 2^63
    widest = 2**63 // 10**4 - 28
    inside = tmp_path / "inside.svg"
    assert main(base + [str(widest), "-o", str(inside)]) == EXIT_OK
    assert inside.read_text() == render_svg_reference(tree, [0], px=widest)
    capsys.readouterr()
    past = tmp_path / "past.svg"
    assert main(base + [str(widest + 1), "-o", str(past)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("percoqs: parameter error: canvas width ")
    assert err.count("\n") == 1
    assert not past.exists()


# --- image panels --------------------------------------------------------------


def _image_rects(svg):
    return [line for line in svg.splitlines() if 'fill="#7d3c68"' in line]


def _image_widths(svg):
    return sorted(re.search(r'width="([^"]+)"', r).group(1) for r in _image_rects(svg))


def _oracle_image_svg(tree, levels, px=220, gap=14):
    """render_svg's image panels, drawn from the oracle's image_cover
    boxes: Fraction corners and sides, sorted as (corner, side) tuples."""
    ftree = compute_flags(tree)
    width = len(levels) * (px + gap) + gap
    height = px + 2 * gap
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">']
    for i, level in enumerate(levels):
        x0, y0 = gap + i * (px + gap), gap
        parts.append(f'<rect x="{x0}" y="{y0}" width="{px}" height="{px}" '
                     f'fill="none" stroke="#222" stroke-width="1"/>')
        rects = sorted((b.corner.to_floats(), float(b.side()))
                       for b in image_cover(ftree, level))
        for (cx, cy), side in rects:
            parts.append(
                f'<rect x="{x0 + cx * px:.4f}" y="{y0 + (1.0 - cy - side) * px:.4f}" '
                f'width="{side * px:.4f}" height="{side * px:.4f}" fill="#7d3c68"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_image_panel_full_grid_near_p_one():
    tree = sample_tree(Params(m=3, d=2, p=1.0 - 2.0**-53), 2, 2)
    svg = render_svg(tree, [2], image=True)
    assert len(_image_rects(svg)) == tree.count(2) == 81
    assert _image_widths(svg) == [f"{220 / 9:.4f}"] * 81


def test_image_panel_levels_and_partition_sum_agree():
    tree = sample_tree(Params(m=3, d=2, p=0.45), 4, 17)
    assert tree.count(4) > 0
    ft = compute_flags(tree)
    svg = render_svg(tree, [4], image=True)
    assert len(_image_rects(svg)) == tree.count(4)
    tl = ft.tilde_lengths[4].tolist()
    assert _image_widths(svg) == sorted(f"{220 / 3**t:.4f}" for t in tl)
    for s in (0, 1, 2):
        total = sum((Fraction(1, 3**t) ** s for t in tl), Fraction(0))
        assert total == partition_sum_exact(ft, s, 4)


@pytest.mark.parametrize("pr, depth, seed, insertions", [
    (Params(m=3, d=2, p=0.45), 4, 17, 0),
    (Params(m=3, d=2, p=0.25), 6, 0, 7),
    (Params(m=4, d=2, p=0.3, k=2, eta=(16, 13)), 5, 2, 160),
    (Params(m=5, d=2, p=0.2), 4, 3, 85),
], ids=["M3p45", "M3p25", "M4K2", "M5"])
def test_image_panel_matches_oracle_boxes(pr, depth, seed, insertions):
    tree, _ = sample_nonextinct(pr, depth, seed)
    tls = compute_flags(tree).tilde_lengths
    assert int((tls[depth] > depth).sum()) == insertions  # survivors with one
    levels = list(range(depth + 1))
    svg = render_svg(tree, levels, image=True)
    assert svg == _oracle_image_svg(tree, levels)
    assert _image_widths(svg) == sorted(
        f"{220 / pr.m**t:.4f}" for tl in tls for t in tl.tolist())


def test_image_panel_matches_oracle_boxes_past_int64():
    ft = _past_int64_tree()
    assert level_table(ft, 7)[1].dtype == object
    levels = list(range(8))
    svg = render_svg(ft.tree, levels, image=True)
    assert svg == _oracle_image_svg(ft.tree, levels)
    assert len(_image_rects(svg)) == sum(ft.tree.count(k) for k in levels)


def test_image_panel_injectivity_guard(monkeypatch):
    # (9, 9) keeps corner (4, 4) over 3^2; (1,) is flagged, so (1, 9)
    # rewrites to (1, 9, 9), corner (4, 4) over 3^3: equal numerators,
    # distinct cells
    shared = tree_from_words(Params(m=3, d=2, p=0.7), 2, [
        [()], [(1,), (9,)], [(1, 9), (9, 1), (9, 9)]])
    img = level_table(compute_flags(shared), 2)[1].tolist()
    assert img[0] == img[2] == [4, 4]
    assert render_svg(shared, [2], image=True) == _oracle_image_svg(shared, [2])

    tree = sample_tree(Params(m=3, d=2, p=1.0 - 2.0**-53), 2, 2)
    table = substitution.level_table

    def repeat_first_row(ftree, level, nodes=None):
        src, img = table(ftree, level, nodes)
        img[1] = img[0]  # level 2 has no flags, so both rows have length 2
        return src, img

    monkeypatch.setattr(substitution, "level_table", repeat_first_row)
    assert render_svg(tree, [2]).count("<rect") == 82  # plain panels ignore it
    with pytest.raises(RuntimeError, match="injectivity"):
        render_svg(tree, [2], image=True)


# --- solve -----------------------------------------------------------------


def test_solve_t_output(capsys):
    assert main(["solve", "t", "--M", "3", "--d", "2", "--p", "0.7"]) == EXIT_OK
    out = capsys.readouterr().out
    m = re.search(r"s_hausdorff=([\d.]+) t_upper=([\d.]+) gap=(\S+) residual=(\S+)", out)
    assert m is not None
    assert float(m.group(1)) == pytest.approx(1.6753404748720375, abs=1e-9)
    assert float(m.group(2)) < float(m.group(1))
    assert float(m.group(4)) <= 1e-12


def test_solve_epsilon_table_output(tmp_path, capsys):
    report = tmp_path / "eps.json"
    assert main(["solve", "epsilon-table", "--out", str(report)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    want = {(3, 2): 0.003887, (4, 2): 0.005559, (5, 2): 0.006082,
            (3, 3): 0.001570, (4, 3): 0.002403}
    for line in out:
        m = re.match(r"M=(\d) d=(\d) p_star=([\d.]+) epsilon=([\d.]+)", line)
        key = (int(m.group(1)), int(m.group(2)))
        assert float(m.group(4)) == pytest.approx(want[key], abs=1e-5)
    rows = json.loads(report.read_bytes())["results"]["rows"]
    assert len(rows) == 5


def test_solve_kappa_output(tmp_path, capsys):
    report = tmp_path / "kappa.json"
    argv = ["solve", "kappa", "--M", "3", "--p", "0.5", "--s", "1.0",
            "--out", str(report)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    m = re.search(r"kappa\(s=1.0, K=1\)=([\d.]+) kappa_prime=([\d.]+)", out)
    assert float(m.group(1)) == pytest.approx(3455 / 3456, abs=1e-15)
    assert float(m.group(2)) == pytest.approx(2303 / 2304, abs=1e-15)
    obj = json.loads(report.read_bytes())
    assert obj["command"] == "solve kappa"
    assert obj["config"]["s"] == 1.0


def test_solve_kappa_eta_parsing(tmp_path):
    report = tmp_path / "k.json"
    argv = ["solve", "kappa", "--M", "4", "--K", "2", "--eta", "16,13",
            "--s", "0.5", "--out", str(report)]
    assert main(argv) == EXIT_OK
    assert json.loads(report.read_bytes())["config"]["eta"] == [16, 13]


# --- check -----------------------------------------------------------------


def test_check_oracle_report(tmp_path, capsys):
    report = tmp_path / "oracle.json"
    assert main(["check", "oracle", "--out", str(report)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    obj = json.loads(report.read_bytes())
    assert obj["format"] == "percoqs-report/2"
    assert obj["pass"] is True
    assert obj["results"]["worst_error"] <= 1e-12
    assert set(obj["config"]) == {"M", "d", "p_grid", "K_grid", "s_grid", "tolerance"}


def test_check_oracle_config_is_what_it_ran(tmp_path, capsys):
    # the oracle runs its own p, K and s grids, so --p and --K change nothing
    blobs = []
    for i, extra in enumerate(([], ["--K", "3", "--p", "0.2"])):
        report = tmp_path / f"oracle{i}.json"
        assert main(["check", "oracle", "--out", str(report), *extra]) == EXIT_OK
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--d", "3"], ["--M", "5", "--d", "3"]])
def test_check_oracle_three_dimensional(flags, capsys):
    assert main(["check", "oracle", *flags]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_check_martingale_runs(capsys):
    argv = ["check", "martingale", "--p", "0.7", "--depth", "3", "--trials", "400"]
    assert main(argv) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_check_qs_runs(capsys):
    argv = ["check", "qs", "--p", "0.7", "--depth", "3", "--trees", "2",
            "--trials", "300"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "C_emp" in out and "PASS" in out


def test_check_dims_runs(capsys):
    argv = ["check", "dims", "--p", "0.5", "--depth", "6", "--trials", "100"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "t_hat < s_hat: PASS" in out


@pytest.mark.xfail(strict=True, reason="t_hat - s_hat = +1.67e-5 at this seed: "
                   "sampling noise the OLS slope check cannot yet tell from a gap")
def test_check_dims_false_failure_seed_269000000(capsys):
    # variant 269 of the benchmark's verify dims op at seed 0; 1 failure in
    # 1,800 scanned variants, so a powered estimator should turn it green
    argv = ["check", "dims", "--p", "0.5", "--depth", "6", "--trials", "100",
            "--seed", "269000000"]
    assert main(argv) == EXIT_OK


def test_check_dims_fails_without_insertions(tmp_path, capsys):
    # at p just below 1 no cell loses its boundary children, so nothing is
    # rewritten and t_hat - s_hat is rounding noise
    report = tmp_path / "dims.json"
    argv = ["check", "dims", "--p", "0.9999999999999999", "--depth", "3",
            "--trials", "30", "--out", str(report)]
    assert main(argv) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "no survivor of a fitted level has an insertion" in out
    assert "t_hat < s_hat: FAIL" in out
    obj = json.loads(report.read_bytes())
    assert obj["results"]["insertions"] == 0 and obj["pass"] is False


def test_check_qs_fails_without_usable_triple(tmp_path, capsys):
    # the one sampled triple repeats its first corner, so no ratio is
    # measured and C_emp = 0 would pass vacuously
    report = tmp_path / "qs.json"
    argv = ["check", "qs", "--p", "0.4", "--depth", "2", "--trees", "1",
            "--trials", "1", "--seed", "6", "--out", str(report)]
    assert main(argv) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "every sampled triple repeats its first corner" in out
    obj = json.loads(report.read_bytes())
    assert obj["results"]["per_tree"][0]["degenerate"] == 1 and obj["pass"] is False


def test_check_qs_fails_on_binary64_collision(tmp_path):
    # at K=40 the image corners of distinct survivors round to one binary64,
    # so a tree's C_emp is inf or nan; the check fails and names the tree,
    # with nothing on stderr
    report = tmp_path / "qs.json"
    proc = subprocess.run(
        [sys.executable, "-m", "percoqs.cli", "check", "qs", "--K", "40", "--p", "0.5",
         "--depth", "5", "--trees", "5", "-o", str(report)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_CHECK_FAILED
    assert proc.stderr == ""
    collided = [line for line in proc.stdout.splitlines() if "binary64" in line]
    assert collided and all(re.match(r"tree \d: ", line) for line in collided)
    results = json.loads(report.read_bytes())["results"]
    assert results["c_emp"] is None
    assert sum(t["c_emp"] is None for t in results["per_tree"]) == len(collided)


def test_check_qs_fails_on_a_nan_c_emp(monkeypatch, capsys):
    # a nan C_emp (0/0 from collided corners) fails the check, even first
    scan = analysis.qs_ratio_scan

    def nan_first_tree(ftree, level, triples, seed):
        out = scan(ftree, level, triples, seed)
        first = seed == derive_seed(0, "qs-scan", 0)
        return dataclasses.replace(out, c_emp=math.nan) if first else out

    monkeypatch.setattr(analysis, "qs_ratio_scan", nan_first_tree)
    argv = ["check", "qs", "--p", "0.7", "--depth", "3", "--trees", "2", "--trials", "300"]
    assert main(argv) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("tree 0: ") and out[0].endswith("C_emp is nan")
    assert out[1].startswith("three-point control constant C_emp=nan ")


def test_reports_are_strict_json(tmp_path, capsys):
    # NaN and infinities are not JSON; reports write them as null
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    solve = tmp_path / "t.json"
    assert main(["solve", "t", "--p", "0.05", "-o", str(solve)]) == EXIT_OK
    qs = tmp_path / "qs.json"
    assert main(["check", "qs", "--p", "0.4", "--depth", "2", "--trees", "1",
                 "--trials", "1", "--seed", "6", "-o", str(qs)]) == EXIT_CHECK_FAILED
    capsys.readouterr()
    results = json.loads(solve.read_bytes(), parse_constant=reject)["results"]
    assert results["t_upper"] is None and results["gap"] is None
    results = json.loads(qs.read_bytes(), parse_constant=reject)["results"]
    assert results["pair_ratio_min"] is None and results["pair_ratio_max"] is None


def test_check_global_runs(tmp_path, capsys):
    report = tmp_path / "global.json"
    argv = ["check", "global", "--p", "0.7", "--depth", "3", "--trials", "2000",
            "--out", str(report)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    obj = json.loads(report.read_bytes())
    assert obj["results"]["boundary_identity_max"] == 0.0
    assert obj["results"]["bilipschitz_bracket"] <= 27.0


def test_check_global_report_bytes_with_reference_g_batch(tmp_path, capsys,
                                                          monkeypatch):
    # the column-wise g_batch writes the report byte for byte as the
    # earlier masked one, through every gate and the corner-map agreement
    argv = ["check", "global", "--depth", "5", "--trials", "20000", "-o"]
    blobs = []
    for i, g in enumerate((globalmap.g_batch, g_batch_reference)):
        monkeypatch.setattr(globalmap, "g_batch", g)
        report = tmp_path / f"global{i}.json"
        assert main([*argv, str(report)]) == EXIT_OK
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_check_global_bracket_block_size_invariant(tmp_path, capsys, monkeypatch):
    # blocks of 7 split the 20,000 pairs 2,858 ways, the last one partial;
    # one block of 20,001 is the whole draw at once
    argv = ["check", "global", "--depth", "5", "--trials", "20000", "-o"]
    blobs = []
    for i, size in enumerate((cli._PAIR_BLOCK, 7, 20_001)):
        monkeypatch.setattr(cli, "_PAIR_BLOCK", size)
        report = tmp_path / f"global{i}.json"
        assert main([*argv, str(report)]) == EXIT_OK
        blobs.append(report.read_bytes())
    assert blobs[1:] == blobs[:1] * 2
    capsys.readouterr()


def test_check_global_report_bytes_frozen(tmp_path, capsys):
    # the benchmark's check global op at variant 0; digest recorded when
    # the bracket drew all its pairs in one array
    report = tmp_path / "global.json"
    assert main(["check", "global", "--p", "0.4", "--depth", "8", "--trials",
                 "400000", "--seed", "0", "-o", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "9797cce3d19ee6f0b6ec06a53ac9081607127e236bb5ec784d305457ccfdc10e"
    )


def test_check_global_memory_does_not_grow_with_trials(tmp_path, capsys):
    # one (400000, 2, 2) draw with g_batch over each half peaked at 67.8 MiB
    report = tmp_path / "global.json"
    tracemalloc.start()
    try:
        assert main(["check", "global", "--p", "0.4", "--depth", "6", "--trials",
                     "400000", "-o", str(report)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("argv", [
    ["check", "global", "--p", "0.4", "--depth", "8", "--trials", "2000"],
    ["check", "qs", "--p", "0.4", "--depth", "8", "--trees", "1"],
])
def test_checks_unpack_each_level_once(argv, tmp_path, capsys, monkeypatch):
    # flags, tables, f_global's prefixes and the pairs' meet all read the
    # one sweep: exactly one np.unpackbits per level
    unpackbits = np.unpackbits
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return unpackbits(*args, **kwargs)

    monkeypatch.setattr(np, "unpackbits", counted)
    assert main([*argv, "-o", str(tmp_path / "report.json")]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 8


def test_check_reports_are_deterministic(tmp_path, capsys):
    blobs = []
    for i in range(2):
        report = tmp_path / f"qs{i}.json"
        argv = ["check", "qs", "--depth", "3", "--trees", "2", "--trials", "200",
                "--out", str(report), "--workers", str(1 + 3 * i)]
        assert main(argv) == EXIT_OK
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_rng_free_report_bytes_frozen(tmp_path, capsys):
    # these reports draw no random numbers, so numpy's stream policy
    # cannot move them; digests recorded before the reports shared one
    # encoder
    want = {
        ("solve", "t"):
            "deaea119b5b9b912553c10c20bcaad28a3cb06a2519309090da2d385a5bf43ad",
        ("solve", "kappa", "--s", "1"):
            "0da49cec9802df7a12defa3c6324f5c0e92a701e5cf2ee39254182d3f0a36605",
        ("solve", "epsilon-table"):
            "4966f2791502ac4876b78fd5155e1f404e8becb78bc3ea058cda6e7a4613ebd8",
        ("check", "oracle"):
            "771e25e31ebc7d10e3f4da9bd8761cf8dbf9f05a8a0f4e84716b2687c47cacb3",
    }
    report = tmp_path / "report.json"
    for argv, digest in want.items():
        assert main([*argv, "-o", str(report)]) == EXIT_OK
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, argv
    capsys.readouterr()


# --- installed entry point ---------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "percoqs.cli", "solve", "epsilon-table"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("epsilon=") == 5
