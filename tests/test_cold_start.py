"""A fresh `python -m ybh` process loads numpy only when it builds a dense map.

Each command runs in its own interpreter under `-X importtime`, which lists
on stderr every module the process imports.  No timing is asserted.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ybh.cli import main
from ybh.cohomology import cocycle_basis
from ybh.fixtures import build_fixture
from ybh.scalars import GF, QQ
from ybh.serialize import algebra_to_json, canonical_json, cochain2_to_json

SRC = str(Path(__file__).resolve().parents[1] / "src")
FIELDS = {"q": QQ, "f101": GF(101), "f2": GF(2)}
FIELD_ARGS = {"q": ["--field", "q"], "f101": ["--field", "prime", "--prime", "101"]}


def _run(*args):
    """(exit code, stdout, whether numpy was imported) of a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    loaded = any(re.search(r"\|\s*numpy$", line) for line in proc.stderr.splitlines())
    return proc.returncode, proc.stdout, loaded


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """The d=2 adjoint braiding of k[Z/2], and its first Z^2 basis cocycle
    with the algebra, over each field."""
    root = tmp_path_factory.mktemp("cold")
    paths = {}
    for tag, field in FIELDS.items():
        b = build_fixture("z2_adjoint", field)
        algebra = algebra_to_json(b)
        cocycle = {"algebra": algebra, **cochain2_to_json(cocycle_basis(b)[0])}
        for kind, doc in (("algebra", algebra), ("cocycle", cocycle)):
            path = paths[kind, tag] = root / f"{kind}_{tag}.json"
            path.write_text(canonical_json(doc))
    return paths


def test_importing_the_cli_leaves_numpy_unloaded():
    code, _, loaded = _run("-c", "import ybh.cli")
    assert code == 0 and not loaded


@pytest.mark.parametrize("tag", ["q", "f101"])
@pytest.mark.parametrize("command", ["check", "construct", "cohomology"])
def test_sparse_commands_leave_numpy_unloaded(docs, command, tag):
    algebra = str(docs["algebra", tag])
    argv = {"check": ["check", algebra],
            "construct": ["construct", "--fixture", "z2_adjoint", *FIELD_ARGS[tag]],
            "cohomology": ["cohomology", algebra, "--degree", "2"]}[command]
    code, out, loaded = _run("-m", "ybh", *argv)
    assert code == 0 and json.loads(out)["dim"] == 2
    assert not loaded


def test_extend_over_q_leaves_numpy_unloaded(docs):
    code, out, loaded = _run("-m", "ybh", "deform", "--extend", str(docs["cocycle", "q"]))
    assert code in (0, 1) and json.loads(out)["mode"] == "extend"
    assert not loaded


def test_extend_over_f2_loads_numpy_and_matches_in_process(docs, capsys):
    argv = ["deform", "--extend", str(docs["cocycle", "f2"])]
    code, out, loaded = _run("-m", "ybh", *argv)
    assert loaded
    assert main(argv) == code
    assert capsys.readouterr().out == out
