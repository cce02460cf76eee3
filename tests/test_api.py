"""The package's public names, and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockrange
from blockrange.linalg import max_eigenpairs_batch

from helpers import dense_spec, mat, spec_to_dict, two_matrix_spec, vanishing_spec


def test_all_is_sorted_unique_and_resolves():
    names = blockrange.__all__
    assert names == sorted(set(names))
    missing = [n for n in names if not hasattr(blockrange, n)]
    assert not missing


def _four_groups():
    """A spec, its four-group identity decomposition and its essential range."""
    spec = two_matrix_spec()
    we = blockrange.essential_numerical_range(spec, grid=16)
    return spec, blockrange.identity_decomposition(4), we


@pytest.mark.parametrize(
    "call",
    [
        lambda: blockrange.Decomposition((1, 2)).group_range(3),
        lambda: blockrange.verify_conv_free(*_four_groups(), from_level=0),
        lambda: blockrange.verify_conv_free(*_four_groups(), from_level=5),
        lambda: blockrange.verify_conv_free(*_four_groups(), from_level=3, groups=[]),
        lambda: blockrange.rayleigh(mat([[1, 0], [0, 1]]), np.array([1.0])),
        lambda: max_eigenpairs_batch(np.eye(2)),
        lambda: max_eigenpairs_batch(np.zeros((1, 2, 3))),
    ],
    ids=["group_index", "from_level_low", "from_level_high", "groups_length",
         "rayleigh_length", "batch_rank", "batch_not_square"],
)
def test_argument_checks_raise_validation_error(call):
    with pytest.raises(blockrange.ValidationError):
        call()


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = Path(blockrange.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )


def test_cold_import_loads_no_scipy():
    proc = _python(
        "import sys, blockrange, blockrange.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_pipeline_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    periodic, vanishing = tmp_path / "periodic.json", tmp_path / "vanishing.json"
    dense = tmp_path / "dense.json"
    periodic.write_text(json.dumps(spec_to_dict(two_matrix_spec())))
    vanishing.write_text(json.dumps(spec_to_dict(
        vanishing_spec([[[0, 1], [0, 0]], [[1.5]]], c=0.5, p=1.0, seed=11))))
    dense.write_text(json.dumps(spec_to_dict(dense_spec(prefix=[mat([[2.0 - 1j]])]))))
    runs = [
        ["decompose", str(periodic), "--groups", "8", "--eps", "0.5"],
        ["verify", str(periodic), "--groups", "8", "--eps", "0.5"],
        ["range", str(periodic), "--block", "2"],
        ["essential", str(vanishing)],
        ["essential", str(dense), "--eps", "0.05", "--k-cap", "65536"],
    ]
    proc = _python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from blockrange.cli import main\n"
        f"print([main(argv) for argv in {runs!r}])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]"
