"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir(request):
    path = HERE / ".work" / f"test-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def span(name, parent, start, end):
    return [name, 0, parent, start, end, None]


def test_self_time_subtracts_direct_children_only():
    spans = [span("cli.op", -1, 0.0, 10.0),
             span("correlations.profile", 0, 1.0, 7.0),
             span("tensor.entropy", 1, 2.0, 3.0),
             span("tensor.entropy", 1, 4.0, 6.5),
             span("correlations.weaving", 0, 8.0, 9.0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0])


def test_layer_totals_from_spans():
    spans = [span("cli.op", -1, 0.0, 10.0),
             span("correlations.profile", 0, 1.0, 7.0),
             span("tensor.entropy", 1, 2.0, 3.0),
             span("tensor.entropy", 1, 4.0, 6.5)]
    spans[1][tracing.ATTR] = "brute"
    spans[2][tracing.ATTR] = ("dense", 16)
    spans[3][tracing.ATTR] = ("pure", 32)
    totals = tracing.layer_totals(spans, {"partitions.enumerated": 15})
    assert totals["correlations.minimize_self_s"] == pytest.approx(2.5)
    assert totals["tensor.entropy_s"] == pytest.approx(3.5)
    assert totals["tensor.entropy_s.pure"] == pytest.approx(2.5)
    assert totals["tensor.entropy_calls.dense"] == 1
    assert totals["tensor.entropy_max_dim"] == 32
    assert totals["correlations.route.brute"] == 1
    assert totals["cli.self_s"] == pytest.approx(4.0)
    assert totals["op_s"] == pytest.approx(10.0)
    assert totals["partitions.enumerated"] == 15


def test_tracer_records_nested_spans_and_restores_originals():
    import corrweave.cli
    import corrweave.correlations

    original = corrweave.cli.profile
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = tracer.op_span(run.run_in_process)(["profile", "--state", "ghz:3",
                                                       "--mode", "brute"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert corrweave.cli.profile is original
    assert corrweave.correlations.enumerate_partitions.__name__ == "enumerate_partitions"
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.op" and "correlations.profile" in names
    profile = names.index("correlations.profile")
    assert tracer.spans[profile][tracing.PARENT] == 0
    assert tracer.spans[profile][tracing.ATTR] == "brute"
    assert all(s[tracing.OP] == 0 for s in tracer.spans)
    # partitions of 3 parties with blocks of at most k = 1, 2, 3: 1 + 4 + 5
    assert tracer.counters["partitions.enumerated"] == 10


@pytest.mark.parametrize("n", [11, 12, 55, 1000])
def test_tail_has_at_least_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    value, percentile, beyond = run.tail(samples)
    assert sum(x > value for x in samples) == beyond == 10
    assert percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_importtime_counts_top_level_imports_from_corrweave_on():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 | site",
        "import time:        10 |       1000 |   scipy",
        "import time:      1000 |    1200000 | corrweave",
        "import time:       600 |      10000 | click",
    ])
    assert run.parse_importtime(log) == pytest.approx(1.21)


PROFILE_OP = {"name": "pure7", "argv": [], "check": {"ref": "pure7", "seeded": True}}
REFERENCE = {"dist": [2.5, 1.25, 0.0], "argmin": [[[0], [1], [2]], [[0, 2], [1]], [[0, 1, 2]]]}


def report(**changes):
    doc = {"file": "x.json", "N": 3, "version": "9.9", **REFERENCE}
    doc.update(changes)
    return json.dumps(doc)


def test_matching_report_passes():
    assert checks.check(PROFILE_OP, 0, report(), {"pure7": REFERENCE}) is None


def test_perturbed_dist_fails():
    dist = [2.5, 1.25 + 2e-9, 0.0]
    assert "dist[1]" in checks.check(PROFILE_OP, 0, report(dist=dist), {"pure7": REFERENCE})


def test_dist_within_tolerance_passes():
    dist = [2.5, 1.25 + 5e-10, 0.0]
    assert checks.check(PROFILE_OP, 0, report(dist=dist), {"pure7": REFERENCE}) is None


def test_changed_argmin_fails_even_with_equal_dist():
    argmin = [[[0], [1], [2]], [[0], [1, 2]], [[0, 1, 2]]]
    error = checks.check(PROFILE_OP, 0, report(argmin=argmin), {"pure7": REFERENCE})
    assert "argmin[1]" in error


def test_nonzero_exit_and_disagreeing_table_fail():
    assert checks.check(PROFILE_OP, 3, "", {}) == "exit status 3"
    table = {"name": "table6", "argv": [], "check": {"agree": True}}
    rows = json.dumps([{"agree": True}, {"agree": False}])
    assert "agree" in checks.check(table, 0, rows, {})


def test_oracle_matches_recorded_references():
    _, seeded = checks.load_recorded()
    seed = min(seeded, key=int)
    files, _ = workloads.build("brute", int(seed))
    for name, recorded in seeded[seed].items():
        oracle = checks.oracle_profile(json.loads(files[name]))
        assert checks.compare(oracle, recorded) is None, name


def test_depolarized_ghz_profile_matches_program(work_dir):
    from corrweave.cli import load_state_file
    from corrweave.correlations import profile

    path = work_dir / "state.json"
    path.write_text(json.dumps(workloads.depolarized_ghz(4, 0.3)), encoding="utf-8")
    prof = profile(load_state_file(str(path)), mode="brute")
    want = checks.depolarized_ghz_profile(4, 0.3)
    assert list(prof.dist) == pytest.approx(want["dist"], abs=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_writes_byte_identical_inputs(workload, work_dir):
    for out in (work_dir / "a", work_dir / "b"):
        workloads.write(workload, 17, out)
    a = {p.name: p.read_bytes() for p in (work_dir / "a").iterdir()}
    b = {p.name: p.read_bytes() for p in (work_dir / "b").iterdir()}
    assert a == b and "ops.json" in a


def test_other_seed_writes_other_states():
    first, _ = workloads.build("brute", 1)
    second, _ = workloads.build("brute", 2)
    assert first.keys() == second.keys()
    assert all(first[name] != second[name] for name in first)
