"""Golden outputs: ``table``, ``profile`` and ``scaling`` reports must stay
byte-identical to the files under ``tests/golden/``.

The cases cover every family spec and alias, every closed-form family and
each kind of named weight scheme.  After an intended output change,
regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from corrweave.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SPECS = ("ghz:4", "ghz:3:3", "classical:5", "classical:4:3",
          "classical-correlated:5", "qudit-classical:4:3", "dicke:4:2",
          "dicke:5:1", "bell-product:4", "bell-product:4:3",
          "qudit-bell-product:4:3", "classical-pair-product:6",
          "a-family:5:0.6", "a-family:3:0.6")
_SWEEPS = (("ghz",), ("classical",), ("bell-product",),
           ("classical-pair-product",), ("dicke-1",), ("dicke-half",),
           ("qudit-classical", "--d", "3"), ("qudit-bell-product", "--d", "3"),
           ("a-family", "--a", "0.6"))

CASES = (
    [("table", "--n", n, "--d", d, "--output", out)
     for n in ("4", "6") for d in ("2", "3") for out in ("json", "csv")]
    + [("profile", "--state", spec) for spec in _SPECS]
    + [("profile", "--state", "dicke:6:3", "--output", "csv")]
    + [("scaling", "--family", *sweep, "--n-max", "256") for sweep in _SWEEPS]
    + [("scaling", "--family", "dicke-half", "--n-max", "256", "--weights", "uniform"),
       ("scaling", "--family", "qudit-classical", "--d", "5", "--n-max", "256",
        "--weights", "delta:3")]
)


def golden_path(args) -> Path:
    ext = "csv" if args[-1] == "csv" else "json"
    return GOLDEN / f"{re.sub(r'[^A-Za-z0-9.]+', '_', ' '.join(args))}.{ext}"


def render(args) -> str:
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result.stdout


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_output_matches_golden(args):
    assert render(args) == golden_path(args).read_text(encoding="utf-8")


#: The profile of a dense state file, read from a directory of its own.
DEPOLARIZED = GOLDEN / "profile_file_depolarized_ghz_6_0.3.json"


def render_depolarized_ghz(directory, n=6, p=0.3) -> dict:
    """The profile report of ``(1-p)|GHZ><GHZ| + p I/2^n`` written as a mixed
    state file, without its ``"file"`` key (the path it was read from)."""
    dim = 2 ** n
    m = np.eye(dim) * (p / dim)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            m[i, j] += (1 - p) / 2
    path = Path(directory) / "depolarized-ghz.json"
    path.write_text(json.dumps({"dims": [2] * n, "kind": "mixed",
                                "payload": [[[float(z), 0.0] for z in row] for row in m]}))
    doc = json.loads(render(("profile", "--state", str(path))))
    del doc["file"]
    return doc


def test_dense_file_profile_matches_golden(tmp_path):
    assert render_depolarized_ghz(tmp_path) == json.loads(DEPOLARIZED.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        golden_path(case).write_text(render(case), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        DEPOLARIZED.write_text(json.dumps(render_depolarized_ghz(tmp), indent=2) + "\n",
                               encoding="utf-8")
