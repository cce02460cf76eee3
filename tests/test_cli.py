"""Command line front end: spec files in, printed summaries and artifacts out."""

import contextlib
import csv
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockrange
from blockrange import BlockOperatorSpec, ParseError, ValidationError, VanishingTail
from blockrange.cli import main, parse_spec, parse_spec_dict

from helpers import (
    DIAG23,
    NILPOTENT,
    dense_spec,
    mat,
    scalar_periodic_spec,
    spec_to_dict,
    two_matrix_spec,
    vanishing_spec,
)

NILPOTENT_SPEC = {"tail": {"kind": "periodic", "cycle": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]}}
TWO_MATRIX = two_matrix_spec()
# the subcommands that take --cert
CERTIFIED = ("essential", "decompose", "verify")


def write_spec(tmp_path, spec_or_doc, name="op.json"):
    doc = spec_or_doc if isinstance(spec_or_doc, dict) else spec_to_dict(spec_or_doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            TWO_MATRIX,
            scalar_periodic_spec([1.0, -1.0], prefix=[3j]),
            vanishing_spec([[[0, 1], [0, 0]], [[1.5]]], c=0.5, p=1.0, seed=11),
            dense_spec(),
        ],
        ids=["periodic", "scalar", "vanishing", "builtin"],
    )
    def test_dict_round_trip(self, spec):
        back = parse_spec_dict(spec_to_dict(spec))
        assert back.prefix == spec.prefix
        assert type(back.tail) is type(spec.tail)
        assert back.shift == spec.shift
        for n in range(1, 7):
            assert back.block(n) == spec.block(n)

    def test_shift_survives(self):
        doc = spec_to_dict(two_matrix_spec())
        doc["shift"] = [0.5, -1.0]
        assert parse_spec_dict(doc).shift == 0.5 - 1j

    def test_text_round_trip(self):
        spec = parse_spec(json.dumps(NILPOTENT_SPEC))
        assert spec.block(1).entries[0, 1] == 1.0


class TestSpecValidation:
    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"tail": {"kind": "mystery"}},
            {"tail": {"kind": "periodic"}},
            {"tail": {"kind": "periodic", "cycle": []}},
            {"tail": {"kind": "periodic", "cycle": [[[[0, 0]], [[1, 0]]]]}},
            {"tail": {"kind": "periodic", "cycle": [[[[0, 0, 0]]]]}},
            {"tail": {"kind": "builtin", "name": "no_such_family"}},
            {"tail": {"kind": "vanishing", "limits": [[[[0, 0]]]], "decay": {"type": "exp", "c": 1, "p": 1}}},
            {"tail": {"kind": "vanishing", "limits": [[[[0, 0]]]], "seed": "abc"}},
            {"tail": {"kind": "periodic", "cycle": [[[[0, 0]]]]}, "bogus": 1},
            {"tail": {"kind": "periodic", "cycle": [[[[0, 0]]]]}, "shift": [1]},
        ],
    )
    def test_rejected_documents(self, doc):
        with pytest.raises(ValidationError):
            parse_spec_dict(doc)

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_spec("{not json")

    def test_bad_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["range", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["range", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestRangeCommand:
    def test_prints_summary_and_writes_artifacts(self, tmp_path, capsys):
        path = write_spec(tmp_path, NILPOTENT_SPEC)
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        rc = main(["range", path, "--csv", str(csv_path), "--svg", str(svg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "block 1" in out and "sandwich gap" in out

        header, rows = read_csv(csv_path)
        assert header == ["theta", "support", "boundary_re", "boundary_im"]
        assert len(rows) == 360
        support = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(support, 0.5, atol=1e-9)

        svg = ET.parse(svg_path).getroot()
        assert svg.tag.endswith("svg")
        assert any(el.tag.endswith("polygon") for el in svg.iter())

    def test_block_selector(self, tmp_path, capsys):
        path = write_spec(tmp_path, TWO_MATRIX)
        assert main(["range", path, "--block", "2"]) == 0
        assert "dim 2" in capsys.readouterr().out


class TestEssentialCommand:
    def test_svg_of_one_point_at_large_coordinates(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"tail": {"kind": "periodic", "cycle": [[[[1e9, 1e9]]]]}})
        svg_path = tmp_path / "out.svg"
        assert main(["essential", path, "--svg", str(svg_path)]) == 0
        svg = ET.parse(svg_path).getroot()
        assert sum(el.tag.endswith("polygon") for el in svg.iter()) == 1

    def test_artifacts(self, tmp_path, capsys):
        path = write_spec(tmp_path, TWO_MATRIX)
        cert_path = tmp_path / "cert.json"
        csv_path = tmp_path / "points.csv"
        svg_path = tmp_path / "plot.svg"
        rc = main([
            "essential", path,
            "--cert", str(cert_path), "--csv", str(csv_path), "--svg", str(svg_path),
        ])
        assert rc == 0
        assert "crosscheck gap" in capsys.readouterr().out

        cert = json.loads(cert_path.read_text())
        assert set(cert) == {
            "converged_at", "crosscheck_gap", "tolerance", "certificate", "vertices"
        }
        assert cert["converged_at"] == 1
        assert cert["crosscheck_gap"] <= cert["tolerance"]
        verts = np.array([complex(re, im) for re, im in cert["vertices"]])
        assert verts.real.max() == pytest.approx(3.0, abs=1e-9)

        header, rows = read_csv(csv_path)
        assert header == ["kind", "re", "im"]
        kinds = {r[0] for r in rows}
        assert kinds == {"vertex", "limsup"}
        ET.parse(svg_path)  # well-formed XML

    def test_diagonal_flag(self, tmp_path, capsys):
        # the diagonal route is gone; scalar tails take the general route
        path = write_spec(tmp_path, scalar_periodic_spec([1.0, -1.0]))
        for command in ("essential", "decompose", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, path, "--diagonal"])
            assert exc.value.code == 2
            assert "--diagonal" in capsys.readouterr().err

    def test_deterministic_artifacts(self, tmp_path):
        path = write_spec(tmp_path, TWO_MATRIX)
        outs = []
        for tag in ("a", "b"):
            cert = tmp_path / f"{tag}.json"
            csvf = tmp_path / f"{tag}.csv"
            assert main(["essential", path, "--cert", str(cert), "--csv", str(csvf)]) == 0
            outs.append(cert.read_bytes() + csvf.read_bytes())
        assert outs[0] == outs[1]


class TestOracleCommand:
    def test_samples_csv(self, tmp_path, capsys):
        path = write_spec(tmp_path, scalar_periodic_spec([1.0, -1.0]))
        csv_path = tmp_path / "samples.csv"
        rc = main(["oracle", path, "--samples", "200", "--csv", str(csv_path)])
        assert rc == 0
        assert "200 essential samples" in capsys.readouterr().out
        header, rows = read_csv(csv_path)
        assert header == ["re", "im"]
        assert len(rows) == 200
        re = np.array([float(r[0]) for r in rows])
        assert re.max() <= 1 + 1e-12 and re.min() >= -1 - 1e-12

    def test_seed_changes_output(self, tmp_path):
        path = write_spec(tmp_path, TWO_MATRIX)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["oracle", path, "--samples", "50", "--csv", str(a)]) == 0
        assert main(["oracle", path, "--samples", "50", "--seed", "7", "--csv", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestDecomposeVerify:
    def test_decompose_two_matrix(self, tmp_path, capsys):
        path = write_spec(tmp_path, TWO_MATRIX)
        cert_path = tmp_path / "decomp.json"
        csv_path = tmp_path / "levels.csv"
        rc = main([
            "decompose", path, "--groups", "8", "--eps", "0.5",
            "--cert", str(cert_path), "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 groups" in out and "conv-free gap" in out

        cert = json.loads(cert_path.read_text())
        assert len(cert["boundaries"]) == 8
        assert cert["conv_free_gap"] < 1e-9
        assert cert["essential"]["crosscheck_gap"] <= cert["essential"]["tolerance"]

        header, rows = read_csv(csv_path)
        assert header == ["level", "boundary", "worst_distance"]
        for m, row in enumerate(rows, start=1):
            assert int(row[0]) == m
            assert float(row[2]) < 0.5 / m

    @staticmethod
    def assert_builds_each_block_once(tmp_path, monkeypatch, command):
        # the regroup scan and the group ranges run on the operator itself,
        # not on a translate, so one spec builds blocks: at most one per
        # prefix index and per cycle position, however far the scans go
        built = []
        build = BlockOperatorSpec.block

        def counting(spec, n):
            built.append((id(spec), n))
            return build(spec, n)

        monkeypatch.setattr(BlockOperatorSpec, "block", counting)
        spec = BlockOperatorSpec((DIAG23,), VanishingTail((NILPOTENT, DIAG23, mat([[1j]]))))
        path = write_spec(tmp_path, spec)
        assert main([command, path, "--groups", "8", "--eps", "0.5"]) == 0
        per_spec = Counter(owner for owner, _ in built)
        assert len(per_spec) == 1 and max(per_spec.values()) <= 1 + 3
        assert len(set(built)) == len(built)

    def test_decompose_builds_each_periodic_block_once(self, tmp_path, monkeypatch):
        self.assert_builds_each_block_once(tmp_path, monkeypatch, "decompose")

    def test_verify_builds_each_periodic_block_once(self, tmp_path, monkeypatch):
        self.assert_builds_each_block_once(tmp_path, monkeypatch, "verify")

    @pytest.mark.parametrize("kind", ["periodic", "scalar", "decaying"])
    def test_decompose_hulls_each_distinct_late_group_once(self, tmp_path, monkeypatch, kind):
        # a periodic tail's late groups hold the same blocks, so one hull
        # serves them all; a decaying tail's blocks all differ, so each
        # late level is hulled; every region measured is bit for bit the
        # one group_region builds for its level of the untranslated
        # operator, and every region drawn is that one translated by -z
        regroup_module = importlib.import_module("blockrange.regroup")
        original = regroup_module.group_region
        calls, seen, drawn = [], [], []

        def counting(spec, decomp, m, *args):
            calls.append((spec, decomp, m, args))
            return original(spec, decomp, m, *args)

        def measured(spec, decomp, we, from_level, groups):
            seen.append((from_level, we.region.grid_size, groups))
            return verify(spec, decomp, we, from_level, groups=groups)

        def polygon(scene, vertices, style="region"):
            drawn.append((style, np.array(vertices)))
            return add_polygon(scene, vertices, style)

        verify = blockrange.cli.verify_conv_free
        add_polygon = blockrange.cli.Scene.add_polygon
        monkeypatch.setattr(regroup_module, "group_region", counting)
        monkeypatch.setattr(blockrange.cli, "verify_conv_free", measured)
        monkeypatch.setattr(blockrange.cli.Scene, "add_polygon", polygon)
        spec = {
            "periodic": BlockOperatorSpec((DIAG23,), VanishingTail((NILPOTENT, DIAG23, mat([[1j]])))),
            "scalar": scalar_periodic_spec([1.0, 1j, -1.0, -1j, 0.5 + 0.5j], prefix=[2.0]),
            "decaying": vanishing_spec([[[0, 1], [0, 0]], [[1.5]]], c=0.5, p=2.0, seed=11),
        }[kind]
        path = write_spec(tmp_path, spec)
        cert = tmp_path / "decomp.json"
        assert main(["decompose", path, "--groups", "10", "--eps", "0.5", "--angles", "90",
                     "--svg", str(tmp_path / "decomp.svg"), "--cert", str(cert)]) == 0
        z = complex(*json.loads(cert.read_text())["translation"])
        (k0, grid, groups), = seen
        assert (k0, grid, len(groups)) == (5, 90, 6)
        owner, decomp = calls[0][0], calls[0][1]
        assert owner.shift == spec.shift
        assert [m for _, _, m, _ in calls] == ([5, 6, 7, 8, 9, 10] if kind == "decaying" else [5])
        accents = [v for style, v in drawn if style == "accent"]
        assert len(accents) == 6
        for m, (region, accent) in enumerate(zip(groups, accents), start=k0):
            fresh = original(owner, decomp, m, grid)
            assert region.vertices.tobytes() == fresh.vertices.tobytes()
            assert region.support.tobytes() == fresh.support.tobytes()
            assert accent.tobytes() == fresh.translate(-z).vertices.tobytes()

    def test_verify_regrouped_beats_identity(self, tmp_path, capsys):
        path = write_spec(tmp_path, TWO_MATRIX)
        good = tmp_path / "good.json"
        rc = main(["verify", path, "--groups", "8", "--eps", "0.5", "--cert", str(good)])
        assert rc == 0
        assert "mode regrouped" in capsys.readouterr().out

        base = tmp_path / "base.json"
        rc = main(["verify", path, "--identity", "--groups", "8", "--cert", str(base)])
        assert rc == 0
        assert "mode identity" in capsys.readouterr().out

        regrouped = json.loads(good.read_text())["conv_free_gap"]
        identity = json.loads(base.read_text())["conv_free_gap"]
        assert regrouped < 1e-9
        assert identity > 0.5


@pytest.mark.parametrize("command", ["essential", "decompose", "verify", "range"])
def test_periodic_document_is_a_vanishing_tail_without_decay(tmp_path, capsys, command):
    """The ``"periodic"`` spelling and a ``"vanishing"`` document without
    decay describe one operator, and give the same bytes everywhere."""
    blocks = [[[[0, 0], [1, 0]], [[0, 0], [0, 0.5]]], [[[1.5, -0.5]]],
              [[[0.5, 0], [0, 1]], [[-1, 0], [0, 0]]]]
    prefix = [[[[3, 1]]]]
    docs = {"periodic": {"kind": "periodic", "cycle": blocks},
            "vanishing": {"kind": "vanishing", "limits": blocks}}
    extra = {"essential": ["--eps", "0.5"], "decompose": ["--eps", "0.5", "--groups", "6"],
             "verify": ["--eps", "0.5", "--groups", "6"], "range": ["--block", "4"]}
    writes = {"range": ("csv", "svg"), "essential": ("csv", "svg", "cert"),
              "decompose": ("csv", "svg", "cert"), "verify": ("cert",)}
    outs = []
    for name, tail in docs.items():
        path = write_spec(tmp_path, {"prefix": prefix, "tail": tail, "shift": [0.25, -0.5]},
                          f"{name}.json")
        arts = {k: tmp_path / f"{name}.{k}" for k in writes[command]}
        argv = [command, path, "--angles", "90", *extra[command]]
        argv += [arg for k, p in arts.items() for arg in (f"--{k}", str(p))]
        assert main(argv) == 0
        outs.append((capsys.readouterr().out, {k: p.read_bytes() for k, p in arts.items()}))
    assert outs[0] == outs[1]
    assert all(outs[0][1].values())


# Flags that a subcommand does not read (--horizon no subcommand reads),
# and an artifact that it does write, which must not appear when the
# command line is refused.
@pytest.mark.parametrize(
    "command, flag, value, artifact",
    [
        ("range", "--cert", "ignored.json", "--csv"),
        ("range", "--eps", "0.5", "--csv"),
        ("oracle", "--angles", "90", "--csv"),
        ("oracle", "--cert", "ignored.json", "--csv"),
        ("verify", "--svg", "ignored.svg", "--cert"),
        ("decompose", "--seed", "3", "--csv"),
        ("essential", "--seed", "3", "--csv"),
        ("essential", "--horizon", "300", "--csv"),
        ("decompose", "--horizon", "300", "--csv"),
        ("verify", "--horizon", "300", "--cert"),
    ],
)
def test_unread_flags_are_usage_errors(tmp_path, monkeypatch, capsys, command, flag, value,
                                      artifact):
    """A flag that a subcommand does not read exits 2 with an ``error:``
    line, before any work: no traceback, and no artifact written."""
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, TWO_MATRIX)
    with pytest.raises(SystemExit) as exc:
        main([command, "op.json", flag, value, artifact, "written"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["op.json"]


class TestExitCodes:
    def test_budget_exhaustion_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, dense_spec())
        rc = main(["essential", path, "--eps", "1e-4", "--k-cap", "8"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_scan_cap_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, dense_spec())
        rc = main([
            "decompose", path, "--eps", "1e-3", "--groups", "64",
            "--k-cap", str(2**15), "--scan-cap", "1000",
        ])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


def _vanishing_doc(c, p):
    return {"tail": {"kind": "vanishing", "limits": [[[[0, 0]]], [[[1, 0]]]],
                     "decay": {"type": "power", "c": c, "p": p}}}


NAN_SHIFT = {"tail": {"kind": "periodic", "cycle": [[[[1, 0]]]]}, "shift": [float("nan"), 0]}


@pytest.mark.parametrize(
    "doc, args, code",
    [
        (TWO_MATRIX, ["essential", "--angles", "2"], 2),
        (TWO_MATRIX, ["essential", "--eps", "0"], 2),
        (TWO_MATRIX, ["essential", "--eps", "-1"], 2),
        (TWO_MATRIX, ["essential", "--eps", "nan"], 2),
        (TWO_MATRIX, ["range", "--block", "0"], 2),
        (TWO_MATRIX, ["decompose", "--groups", "0"], 2),
        (TWO_MATRIX, ["decompose", "--scan-cap", "0"], 2),
        (TWO_MATRIX, ["verify", "--scan-cap", "-1"], 2),
        (TWO_MATRIX, ["oracle", "--samples", "0"], 2),
        (TWO_MATRIX, ["oracle", "--tail-start", "0"], 2),
        (TWO_MATRIX, ["oracle", "--seed", "-1"], 2),
        (NAN_SHIFT, ["essential"], 2),
        (_vanishing_doc(float("nan"), 1.0), ["essential"], 2),
        (_vanishing_doc(0.5, 1e-9), ["essential"], 3),
        (_vanishing_doc(0.5, 0.0078), ["essential", "--k-cap", str(10**400)], 3),
    ],
    ids=["angles_2", "eps_0", "eps_negative", "eps_nan", "block_0", "groups_0",
         "scan_cap_0", "scan_cap_negative",
         "samples_0", "tail_start_0", "seed_negative", "nan_shift", "nan_decay_c",
         "tiny_decay_p", "slow_decay_huge_k_cap"],
)
def test_bad_knobs_exit_cleanly(tmp_path, doc, args, code):
    """Bad options and documents exit 2 (3 for a budget) with one ``error:``
    line and no certificate; run as a fresh process, as a user sees it."""
    path = write_spec(tmp_path, doc)
    cert = tmp_path / "cert.json"
    certify = ["--cert", str(cert)] if args[0] in CERTIFIED else []
    src = Path(blockrange.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "blockrange.cli", args[0], path, *args[1:], *certify],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not cert.exists()


HUGE = str(10**400)
_GOOD = st.sampled_from([0.0, 1.0, -0.5, 2.0, 0.25])
_BAD = st.sampled_from([None, -1, 0, float("nan"), float("inf"), 10**400, 1e308, True,
                        "x", [], {}, [[1, 0]]])


@st.composite
def _matrices(draw):
    n = draw(st.integers(1, 2))
    return [[[draw(_GOOD), draw(_GOOD)] for _ in range(n)] for _ in range(n)]


def _slots(node):
    """Every (container, key) pair of a JSON tree, depth first."""
    keys = node if isinstance(node, dict) else range(len(node))
    for k in keys:
        yield node, k
        if isinstance(node[k], (dict, list)):
            yield from _slots(node[k])


@st.composite
def _documents(draw):
    """An operator document of any tail kind, valid or with one value
    replaced by a bad one."""
    kind = draw(st.sampled_from(["periodic", "vanishing", "builtin"]))
    blocks = st.lists(_matrices(), min_size=1, max_size=3)
    tail = {"kind": kind}
    if kind == "periodic":
        tail["cycle"] = draw(blocks)
    elif kind == "vanishing":
        tail["limits"] = draw(blocks)
        tail["decay"] = {"type": "power", "c": draw(st.sampled_from([0.0, 0.05, 0.5])),
                         "p": draw(st.sampled_from([1.0, 2.0]))}
        tail["seed"] = draw(st.integers(0, 99))
    else:
        tail["name"] = "dense_angle_diagonal"
    doc = {"tail": tail}
    if draw(st.booleans()):
        doc["prefix"] = draw(st.lists(_matrices(), max_size=2))
    if draw(st.booleans()):
        doc["shift"] = [draw(_GOOD), draw(_GOOD)]
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        node[key] = draw(_BAD)
    return doc


# Flag values: valid ones, then 0, -1, nan, inf and huge.  Huge goes only
# to flags whose work does not grow with the value, --angles stays at most
# 16, and a flag not drawn takes a cheap value rather than its default (the
# default eps and group count cost seconds per run), so that every example
# runs in a fraction of a second.
_VALUES = {
    "--angles": ["3", "8", "16", "0", "-1", "nan", "inf"],
    "--eps": ["0.5", "0.05", "0", "-1", "nan", "inf", "1e300"],
    "--k-cap": ["8", "1024", "0", "-1", "inf", HUGE],
    "--seed": ["0", "7", "-1", "nan", HUGE],
    "--groups": ["1", "3", "0", "-1", "nan"],
    "--scan-cap": ["1", "100", "0", "-1", "nan", HUGE],
    "--block": ["1", "2", "5", "0", "-1", "nan"],
    "--identity": [None],
    "--samples": ["1", "50", "0", "-1", "nan"],
    "--tail-start": ["1", "4", "100", "0", "-1", "nan"],
}
# The value flags that each subcommand reads.
_LIMSUP = ("--angles", "--eps", "--k-cap")
_COMMANDS = {
    "range": ("--angles", "--block"),
    "essential": _LIMSUP,
    "decompose": (*_LIMSUP, "--groups", "--scan-cap"),
    "verify": (*_LIMSUP, "--groups", "--scan-cap", "--identity"),
    "oracle": ("--seed", "--samples", "--tail-start"),
}


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = {flag: _VALUES[flag] for flag in _COMMANDS[command]}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        value = draw(st.sampled_from(flags[flag]))
        argv += [flag] if value is None else [flag, value]
    cheap = {"--angles": "16", "--eps": "0.5", "--groups": "3"}
    for flag, value in cheap.items():
        if flag in flags and flag not in argv:
            argv += [flag, value]
    return argv


@given(_documents(), _command_lines())
@settings(max_examples=40, deadline=None)
def test_fuzzed_documents_and_flags_exit_cleanly(doc, argv):
    """Any document and flags exit 0, 2, 3 or 4, with no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.json"
        path.write_text(json.dumps(doc))
        certify = ["--cert", str(Path(tmp) / "c.json")] if argv[0] in CERTIFIED else []
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = main([argv[0], str(path), *argv[1:], *certify])
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
    assert code in (0, 2, 3, 4), out.getvalue()
    assert "Traceback" not in out.getvalue()


@pytest.mark.skipif(shutil.which("blockrange") is None, reason="entry point not installed")
def test_installed_entry_point(tmp_path):
    path = write_spec(tmp_path, TWO_MATRIX)
    proc = subprocess.run(
        ["blockrange", "essential", path], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "crosscheck gap" in proc.stdout
