"""Workloads of the corrweave benchmark: their operations and inputs.

Each workload is a fixed round of CLI operations.  ``build(workload, seed)``
returns the input files the round reads and the round itself; the same
seed always yields byte-identical files.  Run as a script, this module is
the set-up step whose wall time the benchmark reports as ``setup_s``: a
fresh interpreter imports ``corrweave.cli`` (the import every CLI call
pays) and then generates and writes the inputs of one workload::

    python3 perfbench/workloads.py --workload brute --seed 7 --out DIR

Input files are written in the documented state-file format by this module
alone, so the program under test only ever sees the finished inputs.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

#: Layer each workload is designed to load, the layers it should leave
#: idle, and the ROADMAP item it should show or bypass.
NOTES = {
    "brute": (
        "profile on seeded non-invariant random states (Haar pure, full-rank "
        "mixed, random classical; N = 7 and 8) plus tie-heavy brute specs and "
        "`table --n 6`.  Loads partitions + the correlations minimizer "
        "(entropy cache filled eagerly once, then read ~1e4 times per op).  "
        "ROADMAP item 2 (submask DP) should show here; item 3 only as a "
        "second-order effect."),
    "symmetric": (
        "profile on permutation-invariant inputs that take the symmetric-fast "
        "route: dicke:12:6, ghz:12, dicke:11:1, a-family:12:0.6 (neural "
        "complexity needs all 2^N subset entropies), depolarized-GHZ dense "
        "files at N = 7 and 8 with no invariance flag, and the sparse "
        "classical:256.  Loads tensor marginal entropies; the minimizer sees "
        "only N compact partitions.  Item 3 should show; item 2 should not "
        "move it."),
    "closed-form": (
        "`scaling --n-min 8 --n-max 1024` for each of the nine closed-form "
        "families (a-family with --a 0.6) and `table --closed-form-only` at "
        "N = 256 and 512.  Only closed_forms and report rendering run; tensor "
        "and the minimizer never do, so items 2 and 3 predict no change; "
        "item 5 (family registry) should show."),
    "cli-cold": (
        "`python -m corrweave.cli` in a fresh process, one at a time: "
        "profile --state ghz:4, scaling --family ghz --n-max 64, table --n 4.  "
        "Measures the import cost (scipy.stats through closed_forms) that "
        "the in-process workloads pay once, inside setup_s."),
}
WORKLOADS = tuple(NOTES)

#: The nine closed-form families, spelled as the CLI accepts them.
CF_FAMILIES = ("ghz", "classical", "bell-product", "classical-pair-product",
               "dicke-1", "dicke-half", "qudit-classical",
               "qudit-bell-product", "a-family")

BRUTE_SIZES = (7, 8)
RANDOM_KINDS = ("pure", "mixed", "classical")
TIE_SPECS = ("ghz:8", "dicke:8:4", "classical:8", "a-family:8:0.6")
#: Family specs of the symmetric workload with their closed-form twin:
#: (closed-form family, N, amplitude).
SYMMETRIC_SPECS = {
    "dicke:12:6": ("dicke-half", 12, None),
    "ghz:12": ("ghz", 12, None),
    "dicke:11:1": ("dicke-1", 11, None),
    "a-family:12:0.6": ("a-family", 12, 0.6),
    "classical:256": ("classical", 256, None),
}
DEPOLARIZED_SIZES = (7, 8)

#: Placeholder for the directory holding a run's input files.
DIR = "{dir}"


def _op(name, argv, **check):
    return {"name": name, "argv": list(argv), "check": check}


def _state_file(name):
    return f"{DIR}/{name}.json"


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def random_pure(n, rng):
    z = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return {"dims": [2] * n, "kind": "pure", "payload": _pairs(z / np.linalg.norm(z))}


def random_mixed(n, rng):
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / (2 * np.trace(m).real)
    return {"dims": [2] * n, "kind": "mixed", "payload": [_pairs(row) for row in m]}


def random_classical(n, rng):
    p = rng.exponential(size=2 ** n)
    p /= p.sum()
    return {"dims": [2] * n, "kind": "classical",
            "payload": {format(i, f"0{n}b"): float(v) for i, v in enumerate(p)}}


def depolarized_ghz(n, p):
    """``(1-p)|GHZ><GHZ| + p I/2^n`` as a dense state file."""
    dim = 2 ** n
    m = np.eye(dim) * (p / dim)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            m[i, j] += (1 - p) / 2
    return {"dims": [2] * n, "kind": "mixed", "payload": [_pairs(row) for row in m]}


def build(workload: str, seed: int) -> tuple[dict[str, str], list[dict]]:
    """Input files (name -> JSON text) and the op round of one workload.

    An op is ``{"name", "argv", "check"}``; ``argv`` may name input files
    through the ``{dir}`` placeholder, and ``check`` says how the op's
    output is verified (see ``checks.check``).
    """
    rng = np.random.default_rng(seed)
    files: dict[str, dict] = {}
    ops: list[dict] = []
    if workload == "brute":
        makers = {"pure": random_pure, "mixed": random_mixed,
                  "classical": random_classical}
        for n in BRUTE_SIZES:
            for kind in RANDOM_KINDS:
                name = f"{kind}{n}"
                files[name] = makers[kind](n, rng)
                ops.append(_op(name, ["profile", "--state", _state_file(name)],
                               ref=name, seeded=True))
        ops.append(_op("table6", ["table", "--n", "6"], agree=True))
        for spec in TIE_SPECS:
            ops.append(_op(spec, ["profile", "--state", spec, "--mode", "brute"],
                           ref=spec))
    elif workload == "symmetric":
        for spec, twin in SYMMETRIC_SPECS.items():
            ops.append(_op(spec, ["profile", "--state", spec], cf=list(twin)))
        for n in DEPOLARIZED_SIZES:
            p = round(float(rng.uniform(0.1, 0.5)), 6)
            name = f"depolarized-ghz{n}"
            files[name] = depolarized_ghz(n, p)
            ops.append(_op(name, ["profile", "--state", _state_file(name)],
                           depolarized=[n, p]))
    elif workload == "closed-form":
        for fam in CF_FAMILIES:
            extra = ["--a", "0.6"] if fam == "a-family" else []
            ops.append(_op(f"scaling-{fam}", ["scaling", "--family", fam, "--n-min", "8",
                                              "--n-max", "1024", *extra],
                           ref=f"scaling-{fam}"))
        for n in (256, 512):
            ops.append(_op(f"cftable{n}", ["table", "--n", str(n), "--closed-form-only"],
                           ref=f"cftable{n}"))
    elif workload == "cli-cold":
        ops.append(_op("cold-profile-ghz4", ["profile", "--state", "ghz:4"],
                       cf=["ghz", 4, None]))
        ops.append(_op("cold-scaling-ghz64", ["scaling", "--family", "ghz", "--n-max", "64"],
                       ref="cold-scaling-ghz64"))
        ops.append(_op("cold-table4", ["table", "--n", "4"], agree=True))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {name: json.dumps(doc) for name, doc in files.items()}, ops


def write(workload: str, seed: int, out: Path) -> None:
    """Write the workload's input files and ``ops.json`` into ``out``."""
    files, ops = build(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / f"{name}.json").write_text(text, encoding="utf-8")
    (out / "ops.json").write_text(json.dumps(ops, indent=1), encoding="utf-8")


def resolve(argv: list[str], directory: Path) -> list[str]:
    """Fill the ``{dir}`` placeholder of an op's arguments."""
    return [a.replace(DIR, str(directory)) for a in argv]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    import corrweave.cli  # noqa: F401  -- the import cost every CLI call pays
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
