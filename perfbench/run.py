"""corrweave benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload brute --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run sets up its inputs (``workloads.py`` in a fresh interpreter, three
times; ``setup_s`` is the median), then repeats the workload's round of
CLI operations until ``--seconds`` have passed, always finishing the
round it is in, and checks every op's output (``checks.py``).  In-process
workloads call the ``click`` entry point ``corrweave.cli.main``; ``cli-cold``
starts ``python -m corrweave.cli`` for every op.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` wrappers record spans around the calls into each layer
(``tracing.py``) and the last line reports per-layer metrics, per round of
ops.  ``--workload all`` runs every workload untraced and traced, each in
its own process, and prints a summary with the tracing overhead.

BLAS and OpenMP run one thread each (set before numpy loads), so timings
do not depend on how many cores other processes leave free.

Times are reported at a reference host speed.  On a shared host the CPU
throughput a process gets swings by up to 1.7x over seconds to minutes
(measured on a 2-vCPU Xeon VM with a plain Python loop), which would
drown the differences the benchmark exists to show.  So right before every
op and every set-up the benchmark times a fixed calibration kernel of its
own (``calibrate``), and scales that op's or set-up's wall time by
``KERNEL_REF_S / kernel time``.  The raw wall-clock figures are printed
alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
#: The tail is reported at the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Seconds ``calibrate`` takes on the reference host: the 2-vCPU Xeon VM
#: this benchmark was defined on, in its faster state.
KERNEL_REF_S = 0.004

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "fraction"}
#: End-to-end metrics of the result line (BENCHMARK.json).  op_tail_s and
#: fail_frac are printed beside them but not gated: the tail of a fixed op
#: mix with ~10 samples per op type lands on the boundary between op types,
#: and fail_frac is 0 on a correct program (failures are counted in the
#: result line's "failed").
GATED = ("ops_per_s", "op_p50_s", "setup_s", "peak_rss_mb")
#: The layer each workload is designed to load, as spans that should make
#: up at least half of its op time in a traced run.
PREDICTED_LAYER = {
    "brute": ("correlations.minimize_self_s",),
    "symmetric": ("tensor.entropy_s",),
    "closed-form": ("closed_forms.self_s", "closed_forms.block_entropy_s"),
    "cli-cold": ("process.import_s",),
}


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile that has at least ``beyond``
    samples above it: the (beyond+1)-th largest sample, with that
    percentile and the number of samples beyond it.  With ``beyond`` or
    fewer samples, the largest one at percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def calibrate(repeats: int = 3) -> float:
    """Seconds a fixed reference computation takes right now.

    It mixes what corrweave's ops spend their time on -- interpreted
    Python, small dense eigensolves and JSON output -- so that its
    slow-downs track theirs when the shared host runs slower.  The fastest
    of a few back-to-back runs counts: the first one may start with caches
    that the previous op or child process left cold.
    """
    import numpy as np

    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        g = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        h = g @ g.conj().T
        acc, table = 0, {}
        for i in range(12000):
            acc += i * i
            table[i & 1023] = acc
        for _ in range(12):
            np.linalg.eigvalsh(h)
        json.dumps([float(v) for v in table.values()])
        best = min(best, time.perf_counter() - start)
    return best


def parse_importtime(text: str) -> float:
    """Seconds the ``-X importtime`` log of ``python -m corrweave.cli``
    spends importing: every top-level import from ``corrweave`` on."""
    total, started = 0, False
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or fields[2].startswith("  ") or not fields[1].strip().isdigit():
            continue
        started = started or fields[2].strip().startswith("corrweave")
        if started:
            total += int(fields[1])
    return total / 1e6


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def machine(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
            "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": " ".join(str(blas.get(key, "")) for key in
                             ("name", "version", "openblas configuration")),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seed": seed}


# -- running ops ---------------------------------------------------------------


def run_in_process(argv: list[str]) -> tuple[int, str]:
    from corrweave.cli import main

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=argv, standalone_mode=False, prog_name="corrweave")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"op {argv} raised {exc!r}", file=sys.stderr)
            code = 1
    return code, out.getvalue()


class ColdRunner:
    """Runs each op as ``python -m corrweave.cli`` in a fresh process and
    keeps the children's peak RSS and, when traced, their import time."""

    def __init__(self, work: Path, tracer=None):
        self.stderr_path = work / "child-stderr.txt"
        self.tracer = tracer
        self.peak_rss_kb = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        flags = ["-X", "importtime"] if self.tracer else []
        with self.stderr_path.open("w+b") as err:
            proc = subprocess.Popen([sys.executable, *flags, "-m", "corrweave.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                    cwd=ROOT)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            log = err.read().decode("utf-8", "replace")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.tracer:
            self.tracer.add("process.import_s", parse_importtime(log))
        elif proc.returncode:
            print(log[-2000:], file=sys.stderr)
        return proc.returncode, out.decode("utf-8", "replace")


def set_up(workload: str, seed: int, run_dir: Path):
    """Set the workload up ``SETUP_REPEATS`` times in fresh interpreters.

    Returns (wall time, calibration kernel time before it) per set-up, the
    directory of the first set-up, and whether every set-up wrote
    byte-identical files."""
    times, dirs = [], []
    for i in range(SETUP_REPEATS):
        out = run_dir / f"setup{i}"
        kernel = calibrate()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(out)],
                       env=child_env(), cwd=ROOT, check=True, timeout=120)
        times.append((time.perf_counter() - start, kernel))
        dirs.append(out)
    contents = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
    return times, dirs[0], all(c == contents[0] for c in contents)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import tracing
    from workloads import resolve

    run_dir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    try:
        setup_times, inputs, identical = set_up(workload, seed, run_dir)
        ops = json.loads((inputs / "ops.json").read_text(encoding="utf-8"))
        expected, from_oracle = checks.expectations(ops, seed, inputs)
        argvs = [resolve(op["argv"], inputs) for op in ops]
        tracer = tracing.Tracer() if trace else None
        cold = ColdRunner(run_dir, tracer) if workload == "cli-cold" else None
        runner = cold or run_in_process
        if tracer:
            runner = tracer.op_span(runner)
            if not cold:
                tracer.install()
        latencies, errors, attempted, rounds, report_bytes = [], [], 0, 0, 0
        try:
            deadline = time.perf_counter() + seconds
            while rounds == 0 or time.perf_counter() < deadline:
                for op, argv in zip(ops, argvs):
                    kernel = calibrate()
                    start = time.perf_counter()
                    code, text = runner(argv)
                    elapsed = time.perf_counter() - start
                    attempted += 1
                    report_bytes += len(text.encode("utf-8"))
                    error = checks.check(op, code, text, expected)
                    if error:
                        errors.append(f"{op['name']}: {error}")
                    else:
                        latencies.append((op["name"], elapsed, kernel))
                rounds += 1
        finally:
            if tracer:
                tracer.uninstall()
        peak_kb = (cold.peak_rss_kb if cold
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result = {"setup_times": setup_times, "identical_inputs": identical,
                  "latencies": latencies, "errors": errors, "attempted": attempted,
                  "rounds": rounds, "ops_per_round": len(ops),
                  "report_bytes": report_bytes, "from_oracle": from_oracle,
                  "peak_rss_mb": peak_kb / 1024}
        if tracer:
            tracer.dump(WORK / f"spans-{workload}.json")
            result["layers"] = tracing.layer_totals(tracer.spans, tracer.counters)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# -- reporting -------------------------------------------------------------------


def at_reference_speed(wall: float, kernel: float) -> float:
    return wall * KERNEL_REF_S / kernel


def end_to_end(r: dict, scale=at_reference_speed) -> dict:
    """End-to-end metrics from (wall time, kernel time) pairs."""
    lat = [scale(t, k) for _, t, k in r["latencies"]] or [float("nan")]
    tail_value, tail_pct, beyond = tail(lat)
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(scale(t, k) for t, k in r["setup_times"]),
            "peak_rss_mb": r["peak_rss_mb"],
            "_tail": {"percentile": round(tail_pct, 2), "samples": len(lat),
                      "beyond": beyond}}


def per_layer(workload: str, r: dict) -> dict:
    """Per-layer metrics per round of ops, plus the traced op rate."""
    totals = dict(r["layers"])
    totals["cli.report_bytes"] = r["report_bytes"]
    totals.setdefault("partitions.enumerated", 0)
    totals.setdefault("process.import_s", 0.0)
    if workload == "cli-cold":
        # the child's time outside its imports: start-up, dispatch, compute, output
        totals["cli.self_s"] = totals["op_s"] - totals["process.import_s"]
    op_s = totals.pop("op_s")
    out = {name: (value if name == "tensor.entropy_max_dim" else value / r["rounds"])
           for name, value in totals.items()}
    out["trace.op_s"] = op_s / r["rounds"]
    # layer times at reference speed, scaled by the run's typical kernel time
    host = statistics.median(k for _, _, k in r["latencies"]) / KERNEL_REF_S
    out = {name: value / host if unit(name) == "s" else value for name, value in out.items()}
    out["trace.ops_per_s"] = end_to_end(r)["ops_per_s"]
    out["trace.predicted_share"] = sum(totals[m] for m in PREDICTED_LAYER[workload]) / op_s
    return out


def unit(name: str) -> str:
    special = {**END_TO_END_UNITS, "trace.ops_per_s": "1/s", "cli.report_bytes": "B",
               "trace.predicted_share": "fraction"}
    if name in special:
        return special[name]
    if name.endswith("_s") or name.startswith("tensor.entropy_s."):
        return "s"
    return "count"


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    r = measure(workload, seed, seconds, trace)
    failed = len(r["errors"])
    correct = failed == 0 and r["identical_inputs"]
    if trace:
        metrics = per_layer(workload, r)
        share = metrics["trace.predicted_share"]
        detail = {"prediction": {"layers": PREDICTED_LAYER[workload], "share": share,
                                 "met": share >= 0.5}}
    else:
        metrics = end_to_end(r)
        metrics["fail_frac"] = failed / r["attempted"]
        raw = end_to_end(r, scale=lambda wall, kernel: wall)
        del raw["_tail"]
        detail = {"tail": metrics.pop("_tail"), "raw_wall_clock": raw,
                  "latencies": r["latencies"]}
    detail.update(workload=workload, seconds=seconds, trace=trace, rounds=r["rounds"],
                  ops_per_round=r["ops_per_round"], setup_times=r["setup_times"],
                  identical_inputs=r["identical_inputs"],
                  oracle_references=r["from_oracle"],
                  failed=failed, attempted=r["attempted"], errors=r["errors"][:5],
                  machine=machine(seed))
    notes = {"fail_frac": f"({failed} of {r['attempted']} ops)"}
    if "tail" in detail:
        notes["op_tail_s"] = (f"(p{detail['tail']['percentile']} of "
                              f"{detail['tail']['samples']} ops, {detail['tail']['beyond']} beyond)")
    for name, value in metrics.items():
        print(f"{workload:12s} {name:36s} {value:14.6g} {unit(name):8s} {notes.get(name, '')}")
    with_units = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}
    if not trace:
        detail["end_to_end"] = with_units
        with_units = {name: with_units[name] for name in GATED}
    print(json.dumps({"detail": detail}))
    return {"correct": correct, "attempted": r["attempted"], "failed": failed,
            "metrics": with_units}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    summary, ok = {}, True
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            ok = ok and result["correct"]
            summary.setdefault(workload, {})[f"trace{trace}"] = {
                "result": result, "detail": detail}
    print()
    print(f"{'workload':12s} {'untraced ops/s':>15s} {'traced ops/s':>13s} {'overhead':>9s}"
          f" {'predicted layer share':>22s}")
    for workload, runs in summary.items():
        plain = runs["trace0"]["result"]["metrics"]["ops_per_s"]["value"]
        traced = runs["trace1"]["result"]["metrics"]["trace.ops_per_s"]["value"]
        prediction = runs["trace1"]["detail"]["prediction"]
        print(f"{workload:12s} {plain:15.4g} {traced:13.4g} {plain / traced - 1:9.1%}"
              f" {prediction['share']:12.1%} {'met' if prediction['met'] else 'NOT MET'}")
    print(json.dumps({"correct": ok, "workloads": {
        w: {"end_to_end": runs["trace0"]["detail"]["end_to_end"],
            "traced_ops_per_s": runs["trace1"]["result"]["metrics"]["trace.ops_per_s"],
            "prediction": runs["trace1"]["detail"]["prediction"]}
        for w, runs in summary.items()}}))
    return 0 if ok else 1


def main() -> int:
    for var in THREAD_VARS:  # before anything imports numpy
        os.environ[var] = str(THREADS)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "corrweave" / "cli.py").is_file():
        print(f"error: no corrweave sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so that the calibration
    # kernel measures the speed of the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # on SIGTERM, unwind so that children are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import corrweave.cli

    if Path(corrweave.cli.__file__).resolve().parent != SRC / "corrweave":
        print(f"error: corrweave imported from {corrweave.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
