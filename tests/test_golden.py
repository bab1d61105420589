"""Golden outputs: ``table``, ``profile`` and ``scaling`` reports must stay
byte-identical to the files under ``tests/golden/``.

The cases cover every family spec and alias, every closed-form family and
each kind of named weight scheme.  After an intended output change,
regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import re
import sys
from pathlib import Path

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        golden_path(case).write_text(render(case), encoding="utf-8")
