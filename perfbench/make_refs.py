"""Record the reference outputs that ``checks.py`` compares against.

References come from the program at the commit that defines what is
correct: run this against the source tree of that commit (for a change
under test, its parent).  It rewrites ``refs/fixed.json`` (seed-independent
ops) and adds or replaces the given seeds in ``refs/seeded.json`` (random
states of the ``brute`` workload)::

    python3 perfbench/make_refs.py --src PARENT_CHECKOUT/src --seeds 0-31
    python3 perfbench/make_refs.py --src PARENT_CHECKOUT/src --seeds 57
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(ops: list[dict], inputs: Path, run_in_process, keep) -> dict:
    from checks import profile_fields
    from workloads import resolve

    out = {}
    for op in ops:
        if not keep(op["check"]):
            continue
        code, text = run_in_process(resolve(op["argv"], inputs))
        if code:
            raise SystemExit(f"{op['name']} exited with status {code}")
        report = json.loads(text)
        out[op["check"]["ref"]] = profile_fields(report) if op["argv"][0] == "profile" else report
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="source tree (the directory holding corrweave/)")
    parser.add_argument("--seeds", type=seed_range, default=[],
                        help="seeds of the random-state references, e.g. 0-31")
    parser.add_argument("--refs", type=Path, default=HERE / "refs")
    args = parser.parse_args()
    import run

    for var in run.THREAD_VARS:
        os.environ[var] = str(run.THREADS)
    sys.path.insert(0, str(args.src.resolve()))
    import workloads

    inputs = run.WORK / f"refs-{os.getpid()}"
    try:
        fixed = {}
        for workload in workloads.WORKLOADS:
            _, ops = workloads.build(workload, 0)
            fixed.update(record(ops, inputs, run.run_in_process,
                                lambda c: "ref" in c and not c.get("seeded")))
        seeded_path = args.refs / "seeded.json"
        seeded = json.loads(seeded_path.read_text(encoding="utf-8")) if seeded_path.exists() else {}
        for seed in args.seeds:
            workloads.write("brute", seed, inputs)
            _, ops = workloads.build("brute", seed)
            seeded[str(seed)] = record(ops, inputs, run.run_in_process,
                                       lambda c: c.get("seeded"))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    args.refs.mkdir(parents=True, exist_ok=True)
    dump(fixed, args.refs / "fixed.json")
    dump(dict(sorted(seeded.items(), key=lambda item: int(item[0]))), seeded_path)


def dump(doc: dict, path: Path) -> None:
    """One compact line per top-level key."""
    lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in doc.items())
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
