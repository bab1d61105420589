import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corrweave
from corrweave import cli, closed_forms
from corrweave import (ArgumentError, DensityState, NumericError, SetPartition, StateFamily,
                       StateFileError, WeightScheme, compact_partition,
                       make_bell_product, make_classical, make_ghz, tensor_product)
from corrweave.closed_forms import (CF_FAMILIES, FAMILIES, MAX_CLOSED_FORM_N,
                                    ClosedFormFamily, cf_weaving)
from corrweave.cli import (_cell, _emit, _float_texts, _handle_errors, _json_chunks,
                           _round12, _scheme, load_state_file, main, save_state_file)
from corrweave.random_states import haar_state, random_classical, random_density
from oracles import oracle_round_floats


runner = CliRunner()


def run(*args, **kwargs):
    result = runner.invoke(main, list(args), **kwargs)
    return result


def errtext(result):
    return result.output + getattr(result, "stderr", "")


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# -- table ----------------------------------------------------------------


def test_table_n4_all_rows_agree():
    result = run("table", "--n", "4")
    assert result.exit_code == 0, errtext(result)
    rows = json.loads(result.output)
    assert len(rows) == 8
    by_family = {r["family"]: r for r in rows}
    assert all(r["agree"] is True for r in rows)
    assert all(r["matrix_max_dev"] <= 1e-8 for r in rows)
    assert all(r["units"] == "bits" for r in rows)
    ghz = by_family["ghz"]
    assert ghz["dist"] == [4.0, 2.0, 2.0, 0.0]
    assert ghz["genuine"] == [2.0, 0.0, 2.0]
    assert ghz["weaving"] == 8.0
    assert ghz["total"] == 4.0
    cls = by_family["classical"]
    assert cls["dist"] == [3.0, 1.0, 1.0, 0.0]
    assert by_family["bell-product"]["dist"] == [4.0, 0.0, 0.0, 0.0]
    assert by_family["classical-pair-product"]["total"] == 2.0


def test_table_n2_bell_equals_ghz():
    result = run("table", "--n", "2")
    assert result.exit_code == 0, errtext(result)
    by_family = {r["family"]: r for r in json.loads(result.output)}
    # a Bell pair is the two-party instance of both families
    assert by_family["bell-product"]["total"] == 2.0
    assert by_family["ghz"]["total"] == 2.0
    assert by_family["bell-product"]["dist"] == by_family["ghz"]["dist"]


def test_table_qudit_rows_scale_with_log_d():
    result = run("table", "--n", "6", "--d", "3", "--closed-form-only")
    assert result.exit_code == 0, errtext(result)
    by_family = {r["family"]: r for r in json.loads(result.output)}
    ratio = math.log2(3)
    for qudit, base in (("qudit-classical", "classical"),
                        ("qudit-bell-product", "bell-product")):
        got = by_family[qudit]["dist"]
        want = [_round12(v * ratio) for v in by_family[base]["dist"]]
        assert got == pytest.approx(want, abs=1e-12)
    assert all(r["mode"] == "closed-form" for r in by_family.values())


def test_table_large_n_needs_closed_form_flag():
    result = run("table", "--n", "12")
    assert result.exit_code == 3
    assert "closed-form-only" in errtext(result)

    result = run("table", "--n", "12", "--closed-form-only")
    assert result.exit_code == 0, errtext(result)
    by_family = {r["family"]: r for r in json.loads(result.output)}
    assert by_family["ghz"]["dist"][0] == 12.0
    assert by_family["ghz"]["matrix_max_dev"] is None


def test_table_odd_n_skips_pair_families():
    result = run("table", "--n", "5", "--closed-form-only")
    assert result.exit_code == 0, errtext(result)
    families = [r["family"] for r in json.loads(result.output)]
    assert families == ["classical", "ghz", "dicke-1", "qudit-classical"]


def test_table_csv_round_trips_json_values():
    as_json = run("table", "--n", "4")
    as_csv = run("table", "--n", "4", "--output", "csv")
    assert as_json.exit_code == 0 and as_csv.exit_code == 0
    jrows = json.loads(as_json.output)
    crows = rows_from_csv(as_csv.output)
    assert len(crows) == len(jrows)
    for j, c in zip(jrows, crows):
        assert c["family"] == j["family"]
        assert [float(v) for v in c["dist"].split(";")] == j["dist"]
        assert float(c["weaving"]) == j["weaving"]
        assert c["agree"] == "true"
        assert c["units"] == "bits"


def test_table_rejects_tiny_n():
    result = run("table", "--n", "1")
    assert result.exit_code == 2


# -- profile --------------------------------------------------------------


def test_profile_classical_family():
    result = run("profile", "--state", "classical:5")
    assert result.exit_code == 0, errtext(result)
    doc = json.loads(result.output)
    assert doc["family"] == "classical:5"
    assert doc["N"] == 5 and doc["d"] == 2
    assert doc["dist"] == [4.0, 2.0, 1.0, 1.0, 0.0]
    assert doc["genuine"] == [2.0, 1.0, 0.0, 1.0]
    assert doc["total"] == 4.0
    assert doc["neural_complexity"] == 2.0
    assert doc["mode"] == "symmetric-fast"
    assert doc["units"] == "bits"


def test_profile_brute_reports_minimizing_partitions():
    result = run("profile", "--state", "classical:5", "--mode", "brute")
    assert result.exit_code == 0, errtext(result)
    doc = json.loads(result.output)
    assert doc["mode"] == "brute"
    assert doc["argmin"][1] == [[0, 1], [2, 3], [4]]
    assert doc["argmin"][4] == [[0, 1, 2, 3, 4]]


def test_profile_weights_change_weaving_only():
    base = json.loads(run("profile", "--state", "ghz:4").output)
    uni = json.loads(run("profile", "--state", "ghz:4",
                         "--weights", "uniform").output)
    delta = json.loads(run("profile", "--state", "ghz:4",
                           "--weights", "delta:4").output)
    assert base["weaving"] == 8.0 and base["weights"] == "k-1"
    assert uni["weaving"] == 4.0
    assert delta["weaving"] == 2.0
    assert base["dist"] == uni["dist"] == delta["dist"]


def test_profile_weights_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"omega": [1, 2, 3]}), encoding="utf-8")
    result = run("profile", "--state", "ghz:4", "--weights", f"file:{path}")
    assert result.exit_code == 0, errtext(result)
    assert json.loads(result.output)["weaving"] == 8.0

    path.write_text(json.dumps({"omega": [1, 2]}), encoding="utf-8")
    result = run("profile", "--state", "ghz:4", "--weights", f"file:{path}")
    assert result.exit_code == 2
    assert "need 3" in errtext(result)

    path.write_text(json.dumps({"omega": [1], "big-omega": [1]}))
    result = run("profile", "--state", "ghz:2", "--weights", f"file:{path}")
    assert result.exit_code == 2


@pytest.mark.parametrize("values", [[math.nan, 1, 1], [math.inf, 1, 1], [True, 1, 1]])
def test_profile_weights_file_rejects_non_finite_and_boolean_weights(tmp_path, values):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"omega": values}), encoding="utf-8")
    result = run("profile", "--state", "ghz:4", "--weights", f"file:{path}")
    assert result.exit_code == 2, errtext(result)
    assert "finite numbers" in errtext(result)


@pytest.mark.parametrize("output", ["json", "csv"])
def test_weights_that_overflow_the_weaving_index_are_a_numeric_error(tmp_path, output):
    # finite weights whose running sum, the omega form, is infinite
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"big-omega": [1e308, 1e308]}), encoding="utf-8")
    result = run("profile", "--state", "ghz:3", "--weights", f"file:{path}",
                 "--output", output)
    assert result.exit_code == 4, errtext(result)
    assert result.stdout == ""


def test_profile_state_file_product_is_uncorrelated(tmp_path):
    rng = np.random.default_rng(7)
    amps = []
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps.append(v / np.linalg.norm(v))
    product = DensityState.from_amplitudes(
        np.kron(np.kron(amps[0], amps[1]), amps[2]), (2, 2, 2))
    path = tmp_path / "product.json"
    save_state_file(product, str(path))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 0, errtext(result)
    doc = json.loads(result.output)
    assert doc["file"] == str(path)
    assert doc["dims"] == [2, 2, 2]
    assert all(abs(v) <= 1e-9 for v in doc["dist"])
    assert doc["weaving"] <= 1e-9


def test_profile_state_file_round_trip_all_kinds(tmp_path):
    rng = np.random.default_rng(11)
    states = {
        "pure.json": make_ghz(3),
        "classical.json": make_classical(3),
        "mixed.json": tensor_product(
            DensityState.from_matrix(np.eye(2) / 2, (2,)), make_ghz(2)),
        "haar.json": haar_state((2, 3, 2), rng),
        "random-mixed.json": random_density((2, 3, 2), rng),
        "random-classical.json": random_classical((2, 3, 2), rng),
    }
    for name, state in states.items():
        path = tmp_path / name
        save_state_file(state, str(path))
        loaded = load_state_file(str(path))
        assert loaded.dims == state.dims and loaded.rep == state.rep, name
        if state.is_classical:
            assert ({k: p.hex() for k, p in loaded.probabilities().items()}
                    == {k: p.hex() for k, p in state.probabilities().items()}), name
        else:
            payload = (lambda s: s.amplitudes()) if state.is_pure else (lambda s: s.to_matrix())
            assert payload(loaded).tobytes() == payload(state).tobytes(), name


@pytest.mark.parametrize("make, dims", [(haar_state, (2, 3, 2)), (random_density, (2, 3, 2)),
                                        (random_classical, (2, 3, 2)),
                                        (random_classical, (10, 10))],
                         ids=["pure", "mixed", "classical", "classical-d10"])
def test_state_files_save_back_to_their_own_bytes(tmp_path, make, dims):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_state_file(make(dims, np.random.default_rng(36)), str(first))
    save_state_file(load_state_file(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


def test_classical_state_files_take_local_dimensions_up_to_ten(tmp_path):
    path = tmp_path / "classical.json"
    save_state_file(make_classical(2, 10), str(path))
    assert load_state_file(str(path)).probabilities() == make_classical(2, 10).probabilities()
    with pytest.raises(ArgumentError, match="digit-string keys support local dimensions up to 10"):
        save_state_file(make_classical(2, 11), str(path))


def _pairs(values):
    return [[z.real, z.imag] for z in values]


_RHO = random_density((2, 2), np.random.default_rng(3)).to_matrix()
_ROWS = json.dumps([_pairs(row) for row in _RHO])
_PSI = json.dumps(_pairs(haar_state((2, 3), np.random.default_rng(4)).amplitudes()))
_MIXED = {"dims": [2, 2], "kind": "mixed", "payload": json.loads(_ROWS)}
READER_TEXTS = {  # state files that json.loads reads
    "indent-2": json.dumps(_MIXED, indent=2),
    "compact": json.dumps(_MIXED, separators=(",", ":")),
    "tab-indent-payload-first": json.dumps(dict(reversed(_MIXED.items())), indent="\t"),
    "pure-payload-first": ' {"payload": %s, "kind": "pure", "dims": [2, 3]}\n' % _PSI,
    "extra-keys": ('{"note": {"payload": [[[1, 0]]]}, "dims": [2, 2], "payloads": [[[0, 1]]], '
                   '"kind": "mixed", "payload": %s, "more": [[[1, 2]], 3]}' % _ROWS),
    "duplicate-payload": ('{"payload": [[[1, 0], true]], "dims": [2, 2], "kind": "mixed", '
                          '"payload": %s}' % _ROWS),
    "payload-then-scalar-payload": '{"payload": %s, "dims": [2, 2], "kind": "mixed", '
                                   '"payload": 0, "payload": %s}' % (_ROWS, _ROWS),
    "integer-entries": json.dumps({"dims": [2], "kind": "mixed",
                                   "payload": [[[1, 0], [0, 0]], [[0, 0], [0, -0]]]}),
    "non-finite-tokens-elsewhere": ('{"dims": [2, 2], "x": [NaN, -Infinity, Infinity], '
                                    '"kind": "mixed", "payload": %s}' % _ROWS),
    # the first payload is no row of pairs; the last one read is
    "payload-then-pure-payload": ('{"payload": [[1, 0], 5], "dims": [2], "kind": "pure", '
                                  '"payload": [[1, 0], [0, 0]]}'),
    "escaped-payload-key": '{"dims": [2], "kind": "pure", "pay\\u006coad": [[1, 0], [0, 0]]}',
}


@pytest.mark.parametrize("name", READER_TEXTS)
def test_state_file_reader_loads_the_payload_json_loads_reads(tmp_path, monkeypatch, name):
    text = READER_TEXTS[name]
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    want = np.array(json.loads(text)["payload"], float).view(complex)

    def loads(*args, **kwargs):
        raise AssertionError("a text json.loads reads must not need a second parse")

    monkeypatch.setattr(json, "loads", loads)
    state = load_state_file(str(path))
    got = state.amplitudes() if state.is_pure else state.to_matrix()
    assert got.tobytes() == want.tobytes()


_NUMBER_TEXTS = ("0", "-0", "-0.0", "3", "-12", "1E-5", "5e-324", "1e308", "-1e308")
_SPACES = ("", " ", "\t", "\n", "\r\n")


def _layout_text(rng, n, kind):
    """A state file of random numbers in a random layout: pure or mixed,
    dims [2] * n, its members in a random order, and a random run of JSON
    whitespace between any two tokens."""
    def number():
        form = rng.randrange(4)
        x = rng.uniform(-1, 1)
        return (rng.choice(_NUMBER_TEXTS), repr(x), "%.17e" % x, "%.17E" % x)[form]

    def tokens(depth):  # depth 1: one [re, im] pair
        yield "["
        for k in range(2 if depth == 1 else 2 ** n):
            if k:
                yield ","
            yield from (tokens(depth - 1) if depth > 1 else [number()])
        yield "]"

    members = [['"dims"', ":", *json.dumps([2] * n)],
               ['"kind"', ":", json.dumps(kind)],
               ['"payload"', ":", *tokens(2 if kind == "pure" else 3)]]
    rng.shuffle(members)
    out = ["{", *members[0], ",", *members[1], ",", *members[2], "}"]
    return "".join(t + "".join(rng.choices(_SPACES, k=rng.randrange(3))) for t in out)


def test_state_file_reader_reads_random_layouts_to_json_loads_bits(tmp_path, monkeypatch):
    # the built state would refuse most payloads here, so it is the payload array itself
    monkeypatch.setattr(DensityState, "from_amplitudes", classmethod(lambda cls, a, dims: a))
    monkeypatch.setattr(DensityState, "from_matrix", classmethod(lambda cls, m, dims: m))
    rng = random.Random(31)
    path = tmp_path / "state.json"
    for _ in range(120):
        text = _layout_text(rng, rng.randint(1, 4), rng.choice(["pure", "mixed"]))
        path.write_text(text, encoding="utf-8", newline="")
        want = np.array(json.loads(text)["payload"], float).view(complex)
        assert load_state_file(str(path)).tobytes() == want.tobytes(), text


def _matrix_text(n, bad_row):
    """A mixed state file of the maximally mixed n-qubit state, its row
    ``bad_row`` replaced by a list that is no row of pairs."""
    dim = 2 ** n
    rows = [[[1 / dim if i == j else 0, 0] for j in range(dim)] for i in range(dim)]
    rows[bad_row] = [True, "x"]
    return json.dumps({"dims": [2] * n, "kind": "mixed", "payload": rows})


_ONE_PAIR_TEXTS = {  # state files whose last pair is %s
    "mixed": '{"dims": [2], "kind": "mixed", "payload": [[[0.5, 0], [0, 0]], [[0, 0], %s]]}',
    "pure": '{"dims": [2], "kind": "pure", "payload": [[1, 0], %s]}',
}
NOT_JSON_TEXTS = {  # state files json.loads refuses
    "trailing-garbage": READER_TEXTS["compact"] + " x",
    "trailing-brace": READER_TEXTS["indent-2"] + "\n}",
    "second-document": READER_TEXTS["compact"] * 2,
    "bad-row-then-no-final-brace": _matrix_text(8, 3)[:-1],
    "payload-first-cut-in-a-row": READER_TEXTS["tab-indent-payload-first"][:200],
    "trailing-comma-in-payload": READER_TEXTS["compact"].replace("]]]", "]],]"),
    "trailing-comma-in-object": READER_TEXTS["compact"][:-1] + ",}",
    "missing-colon": READER_TEXTS["compact"].replace('"kind":', '"kind"'),
    "equals-for-colon": READER_TEXTS["compact"].replace('"kind":', '"kind"='),
    "number-as-key": "{0:0," + READER_TEXTS["compact"][1:],
    "missing-comma-between-rows": READER_TEXTS["compact"].replace("]],[[", "]][[", 1),
    "semicolon-for-comma": READER_TEXTS["compact"].replace('"mixed",', '"mixed";'),
    "unquoted-key": READER_TEXTS["compact"].replace('"dims"', "dims"),
    "single-quoted-string": READER_TEXTS["compact"].replace('"mixed"', "'mixed'"),
    "empty-file": "",
    "byte-order-mark": "\ufeff" + READER_TEXTS["compact"],
    # pairs whose numbers json refuses, in a mixed row and in a pure payload
    **{f"{kind}-pair-{name}": text % pair for kind, text in _ONE_PAIR_TEXTS.items()
       for name, pair in (("plus", "[+1, 0]"), ("leading-zero", "[01, 0]"),
                          ("bare-fraction", "[.5, 0]"), ("bare-point", "[1., 0]"),
                          ("bare-exponent", "[1e, 0]"), ("no-comma", "[1 2]"),
                          ("arabic-digit", "[\u0661, 0]"), ("empty-slot", "[, 0]"))},
    # numbers outside their pairs, the brackets and commas where a row of pairs has them
    "number-after-an-empty-slot": ('{"dims": [2], "kind": "mixed", '
                                   '"payload": [[[0.5, ]0, [0, 0]], [[0, 0], [0.5, 0]]]}'),
    "number-after-its-pair": ('{"dims": [2], "kind": "mixed", '
                              '"payload": [[[0.5, 0] 0, [0, 0]], [[0, 0], [0.5, 0]]]}'),
    "pure-number-after-an-empty-slot": ('{"dims": [2], "kind": "pure", '
                                        '"payload": [[1, ]0, [0, 0]]}'),
}


@pytest.mark.parametrize("name", NOT_JSON_TEXTS)
def test_state_file_reader_raises_json_loads_own_error(tmp_path, name):
    text = NOT_JSON_TEXTS[name]
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as error:
        json.loads(text)
    e = error.value
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert result.stderr == f"error: {path}:{e.lineno}:{e.colno}: invalid JSON ({e.msg})\n"


NESTED_TEXTS = {  # state files with "[" * depth + "]" * depth in a second payload row or in dims
    "row": '{"dims": [2], "kind": "mixed", "payload": [[[0.5, 0], [0, 0]], %s]}',
    "dims": '{"dims": %s, "kind": "mixed", "payload": []}',
}


@pytest.mark.parametrize("name", NESTED_TEXTS)
def test_state_file_reader_refuses_at_json_loads_own_nesting_depth(name):
    # the reader reads exactly as deep as json.loads in its place, so whether a file is
    # nested too deeply does not depend on which of the two read it; both are called
    # from this one frame
    def refuses(read, depth):
        try:
            read(NESTED_TEXTS[name] % ("[" * depth + "]" * depth))
        except RecursionError:
            return True
        return False

    depth = 1
    while not refuses(json.loads, depth):
        depth += 1
    assert not refuses(cli._scan_json, depth - 1)
    assert refuses(cli._scan_json, depth)


def test_state_file_rows_are_freed_before_the_state_is_built(tmp_path, monkeypatch):
    path = tmp_path / "mixed.json"
    save_state_file(random_density((2, 2), np.random.default_rng(5)), str(path))
    rows, seen = [], []
    float_pairs, from_matrix = cli._float_pairs, DensityState.from_matrix.__func__

    def keep(row):
        out = float_pairs(row)
        rows.append(weakref.ref(out))
        return out

    def build(cls, matrix, dims, **kwargs):
        seen.append([ref() is None for ref in rows])
        return from_matrix(cls, matrix, dims, **kwargs)

    monkeypatch.setattr(cli, "_float_pairs", keep)
    monkeypatch.setattr(DensityState, "from_matrix", classmethod(build))
    load_state_file(str(path))
    assert len(rows) >= 4 and seen == [[True] * len(rows)]


def test_state_file_reader_checks_each_byte_at_most_once(tmp_path, monkeypatch):
    # a row of pairs, 511 flat lists, then 512 flat lists behind one pair. A flat list's
    # only "]" is its last, and a list behind one pair holds no "]]", so a reader that
    # cut rows not opening "[[", or cut each row at the next "]]", would hand about
    # rows x file bytes to the check
    path = tmp_path / "flat-rows.json"
    flat = ", ".join(["0"] * 2048)
    rows = ", ".join(["[" + ", ".join(["[0, 0]"] * 1024) + "]"] + ["[%s]" % flat] * 511
                     + ["[[0, 0], %s]" % flat[6:]] * 512)
    path.write_text('{"dims": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2], "kind": "mixed", '
                    '"payload": [%s]}' % rows)
    size, checked = path.stat().st_size, []
    float_pairs = cli._float_pairs

    def count(row):
        checked.append(len(row))
        assert sum(checked) <= size, f"{len(checked)} checks read {sum(checked)} bytes"
        return float_pairs(row)

    monkeypatch.setattr(cli, "_float_pairs", count)
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert result.stderr == (f"error: {path}: field 'payload[1]' must list 1024 "
                             "[re, im] pairs\n")


def test_state_file_reader_peaks_at_about_twice_the_file_size(tmp_path):
    path = tmp_path / "mixed8.json"
    save_state_file(random_density((2,) * 8, np.random.default_rng(8)), str(path))
    load_state_file(str(path))
    tracemalloc.start()
    try:
        load_state_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2x: the file's bytes and its text, alive together while the text is decoded;
    # the payload's float rows, a third of the file's size, come after the bytes are freed
    assert peak < 2.5 * path.stat().st_size, (peak, path.stat().st_size)


_M = [[0.5, 0], [0, 0]]  # a valid [re, im] row of a 2x2 mixed payload
BAD_PAYLOAD_TEXTS = {
    "ragged-mixed-row": (json.dumps({"dims": [2], "kind": "mixed",
                                     "payload": [_M, [[0.5, 0]]]}),
                         "field 'payload[1]' must list 2 [re, im] pairs"),
    "mixed-row-not-a-list": (json.dumps({"dims": [2], "kind": "mixed", "payload": [_M, 0.5]}),
                             "field 'payload[1]' must list 2 [re, im] pairs"),
    "mixed-too-few-rows": (json.dumps({"dims": [2], "kind": "mixed", "payload": [_M]}),
                           "field 'payload' must be a 2x2 matrix"),
    "triple": (json.dumps({"dims": [2], "kind": "pure", "payload": [[1, 0], [0, 0, 0]]}),
               "field 'payload' entry 1 must be an [re, im] pair of finite numbers"),
    "string": (json.dumps({"dims": [2], "kind": "pure", "payload": [[1, 0], ["0", 0]]}),
               "field 'payload' entry 1 must be an [re, im] pair of finite numbers"),
    "null": (json.dumps({"dims": [2], "kind": "pure", "payload": [[1, None], [0, 0]]}),
             "field 'payload' entry 0 must be an [re, im] pair of finite numbers"),
    "true-in-mixed": (json.dumps({"dims": [2], "kind": "mixed",
                                  "payload": [_M, [[0, 0], [True, 0]]]}),
                      "field 'payload[1]' entry 1 must be an [re, im] pair of finite numbers"),
    "huge-integer": (json.dumps({"dims": [2], "kind": "mixed",
                                 "payload": [[[0.5, 0], [10 ** 400, 0]], _M]}),
                     "field 'payload[0]' entry 1 must be an [re, im] pair of finite numbers"),
    "nan-token": ('{"dims": [2], "kind": "pure", "payload": [[1, 0], [NaN, 0]]}',
                  "field 'payload' entry 1 must be an [re, im] pair of finite numbers"),
    "infinity-token": ('{"dims": [2], "kind": "mixed", '
                       '"payload": [[[0.5, 0], [0, 0]], [[0, -Infinity], [0.5, 0]]]}',
                       "field 'payload[1]' entry 0 must be an [re, im] pair of finite numbers"),
    "pure-nested-too-deep": (json.dumps({"dims": [2], "kind": "pure",
                                         "payload": [[[1, 0]], [[0, 0]]]}),
                             "field 'payload' entry 0 must be an [re, im] pair of finite numbers"),
    "mixed-nested-too-deep": (json.dumps({"dims": [2], "kind": "mixed",
                                          "payload": [_M, [[[0, 0]], [[0.5, 0]]]]}),
                              "field 'payload[1]' entry 0 must be an [re, im] pair of "
                              "finite numbers"),
    "json-nested-too-deep": ("[" * 100000 + "]" * 100000, "invalid JSON (nested too deeply)"),
    # shapes with the right number of numbers, or of entries, at some level
    "pair-as-string": (json.dumps({"dims": [2], "kind": "pure", "payload": [[1, 0], "00"]}),
                       "field 'payload' entry 1 must be an [re, im] pair of finite numbers"),
    "pair-as-object": (json.dumps({"dims": [2], "kind": "pure",
                                   "payload": [[1, 0], {"re": 0, "im": 0}]}),
                       "field 'payload' entry 1 must be an [re, im] pair of finite numbers"),
    "pairs-of-3-and-1": (json.dumps({"dims": [2], "kind": "pure", "payload": [[1, 0, 0], [0]]}),
                         "field 'payload' entry 0 must be an [re, im] pair of finite numbers"),
    "mixed-rows-of-3-and-1": (json.dumps({"dims": [2], "kind": "mixed",
                                          "payload": [_M + [[0, 0]], [[0.5, 0]]]}),
                              "field 'payload[0]' must list 2 [re, im] pairs"),
    "mixed-row-as-string": (json.dumps({"dims": [2], "kind": "mixed", "payload": [_M, "ab"]}),
                            "field 'payload[1]' must list 2 [re, im] pairs"),
    # pairs json reads that are no [re, im] pairs of finite numbers
    **{f"{kind}-pair-{name}": (_ONE_PAIR_TEXTS[kind] % pair, f"field {field!r} entry 1 "
                               "must be an [re, im] pair of finite numbers")
       for kind, field in (("mixed", "payload[1]"), ("pure", "payload"))
       for name, pair in (("nested", "[[1], 2]"), ("nan", "[NaN, 0]"),
                          ("minus-infinity", "[-Infinity, 0]"))},
    # only the payload is read as rows of pairs; any other member keeps json's value
    "kind-as-rows": ('{"dims":[2],"kind":[[[1,2]]],"payload":[]}',
                     "field 'kind' must be pure, mixed, or classical, got [[[1, 2]]]"),
    "kind-as-two-rows": ('{"dims":[2],"kind":[[[1,2],[3,4]],[[5,6]]],"payload":[]}',
                         "field 'kind' must be pure, mixed, or classical, "
                         "got [[[1, 2], [3, 4]], [[5, 6]]]"),
    "kind-as-pairs": ('{"dims":[2],"kind":[[1, 2]],"payload":[]}',
                      "field 'kind' must be pure, mixed, or classical, got [[1, 2]]"),
    # a kind is compared with each kind's name, never hashed
    "kind-as-object": ('{"dims":[2],"kind":{"a": 1},"payload":[]}',
                       "field 'kind' must be pure, mixed, or classical, got {'a': 1}"),
    "kind-null": ('{"dims":[2],"kind":null,"payload":[]}',
                  "field 'kind' must be pure, mixed, or classical, got None"),
    # documents whose shape is wrong before any payload entry is read
    "top-level-array": ('[{"dims": [2], "kind": "pure", "payload": [[1, 0], [0, 0]]}]',
                        "top level must be a JSON object"),
    "no-payload": (json.dumps({"dims": [2], "kind": "pure"}), "missing field 'payload'"),
    "classical-payload-list": (json.dumps({"dims": [2], "kind": "classical",
                                           "payload": [0.5, 0.5]}),
                               "field 'payload' must map digit strings to probabilities"),
}


@pytest.mark.parametrize("name", BAD_PAYLOAD_TEXTS)
def test_malformed_payload_names_its_first_bad_entry(tmp_path, name):
    text, message = BAD_PAYLOAD_TEXTS[name]
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2, errtext(result)
    assert f"error: {path}: {message}" in errtext(result)


OVERFLOWING_PAYLOADS = {
    "pure-norm": ({"dims": [2], "kind": "pure", "payload": [[1e200, 0], [1e200, 0]]},
                  "amplitude vector norm differs from 1 beyond 1e-12"),
    "mixed-trace": ({"dims": [2], "kind": "mixed", "payload": [[[1e308, 0]] * 2] * 2},
                    "matrix trace differs from 1 beyond 1e-10"),
    # Hermitian with unit trace; its spectrum overflows to NaN
    "mixed-off-diagonal": ({"dims": [2], "kind": "mixed",
                            "payload": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]},
                           "matrix has an eigenvalue below -1e-10"),
}


@pytest.mark.parametrize("name", OVERFLOWING_PAYLOADS)
def test_overflowing_payload_prints_one_error_line(tmp_path, name):
    doc, message = OVERFLOWING_PAYLOADS[name]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(corrweave.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "default", "-m", "corrweave.cli",
                           "profile", "--state", str(path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {path}: field 'payload': {message}\n"


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                     st.integers(10 ** 300, 10 ** 400), st.floats(), st.text(max_size=2))
_PAYLOADS = st.one_of(
    _SCALARS,
    st.lists(st.lists(_SCALARS, max_size=3), max_size=5),
    st.lists(st.lists(st.lists(_SCALARS, max_size=3), max_size=5), max_size=5),
    st.dictionaries(st.text("0123", max_size=3), _SCALARS, max_size=4),
    st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8))
_MAKERS = {"pure": haar_state, "mixed": random_density, "classical": random_classical}


@st.composite
def _state_docs(draw):
    """A state file: valid, valid with one payload entry replaced, or
    built from arbitrary JSON."""
    kind = draw(st.sampled_from(["pure", "mixed", "classical", "thermal"]))
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    if kind == "thermal" or draw(st.booleans()):
        return {"dims": draw(st.one_of(st.just(dims), _SCALARS,
                                       st.lists(_SCALARS, max_size=3))),
                "kind": kind, "payload": draw(_PAYLOADS)}
    state = _MAKERS[kind](dims, np.random.default_rng(draw(st.integers(0, 99))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        save_state_file(state, str(path))
        doc = json.loads(path.read_text())
    if draw(st.booleans()):
        entries = doc["payload"]
        if kind == "classical":
            key = draw(st.sampled_from(sorted(entries)))
            entries[key] = draw(_SCALARS)
        else:
            if kind == "mixed":
                entries = entries[draw(st.integers(0, len(entries) - 1))]
            entries[draw(st.integers(0, len(entries) - 1))] = draw(_PAYLOADS)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_state_docs(), order=st.permutations(range(3)),
       layout=st.sampled_from([{}, {"indent": 2}, {"indent": "\t"}, {"indent": 0},
                               {"separators": (",", ":")}]),
       junk=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_fuzzed_state_files_exit_with_a_documented_code(fuzz_dir, doc, order, layout, junk):
    # the keys are written in a drawn order and layout, so payload-first and
    # multi-line files are read too; junk, when drawn, places a byte that is
    # never valid UTF-8 at that fraction of the text
    path = fuzz_dir / "state.json"
    keys = list(doc)
    data = json.dumps({keys[i]: doc[keys[i]] for i in order}, **layout).encode()
    if junk is not None:
        cut = int(junk * len(data))
        data = data[:cut] + b"\xff" + data[cut:]
    path.write_bytes(data)
    result = run("profile", "--state", str(path))
    assert result.exit_code in (0, 2, 3, 4), (doc, errtext(result), result.exception)
    assert "invalid JSON" not in errtext(result) or junk is not None
    if junk is not None:
        assert result.exit_code == 2
        assert f"state file {path} is not valid UTF-8" in errtext(result)


def test_profile_malformed_state_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dims": [2, 2], "kind": "pure", "payload": [[1.0, 0.0]]}))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2
    assert "payload" in errtext(result) and "4" in errtext(result)

    path.write_text("{not json")
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2
    assert "invalid JSON" in errtext(result)

    path.write_text(json.dumps({"dims": [2], "kind": "thermal", "payload": []}))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2
    assert "thermal" in errtext(result)


def test_profile_non_finite_or_boolean_state_file_is_an_argument_error(tmp_path):
    path = tmp_path / "bad.json"
    payloads = [("pure", [[math.nan, 0.0], [0.0, 0.0]]),
                ("pure", [[math.inf, 0.0], [0.0, 0.0]]),
                ("pure", [[True, 0.0], [0.0, 0.0]]),
                ("pure", [[10 ** 400, 0], [0, 0]]),
                ("classical", {"0": math.nan, "1": 1.0}),
                ("classical", {"0": True, "1": False}),
                ("mixed", [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])]
    for kind, payload in payloads:
        path.write_text(json.dumps({"dims": [2], "kind": kind, "payload": payload}))
        result = run("profile", "--state", str(path))
        assert result.exit_code == 2, (kind, payload, errtext(result))
        assert "payload" in errtext(result) and "finite number" in errtext(result)


def test_profile_unnormalized_state_file_is_an_argument_error(tmp_path):
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps(
        {"dims": [2], "kind": "pure", "payload": [[2.0, 0.0], [0.0, 0.0]]}))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2
    assert "payload" in errtext(result)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_profile_state_file_beyond_the_dense_cap_is_a_capacity_error(tmp_path, kind):
    # 2^15000 has more decimal digits than Python will print
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dims": [2] * 15000, "kind": kind, "payload": []}))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 3, (errtext(result), result.exception)
    assert "total dimension 2^15000 exceeds the dense capacity limit" in errtext(result)
    assert "max_dim" not in errtext(result)


def test_json_integers_beyond_the_digit_limit_are_argument_errors(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [%s], "kind": "pure", "payload": []}' % ("1" * 5000))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert "an integer has too many digits" in errtext(result)
    path.write_text('{"big-omega": [%s, 1]}' % ("1" * 5000))
    result = run("profile", "--state", "ghz:3", "--weights", f"file:{path}")
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert "an integer has too many digits" in errtext(result)


def test_files_that_are_not_utf8_are_argument_errors(tmp_path):
    path = tmp_path / "latin1.json"
    data = b'{"dims": [2], "kind": "pure", "payload": [], "note": "caf\xff"}'
    path.write_bytes(data)
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert (f"error: state file {path} is not valid UTF-8 "
            f"(invalid start byte at byte {data.index(0xff)})") in errtext(result)
    path.write_bytes(b'{"big-omega": [1.0, 1.0], "note": "caf\xff"}')
    result = run("profile", "--state", "ghz:3", "--weights", f"file:{path}")
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert f"error: weights file {path} is not valid UTF-8" in errtext(result)
    assert "too many digits" not in errtext(result)


_BAD_FILES = {  # contents (None: a directory), and the message
    "directory": (None, "cannot read {what} file {path}: {isdir}"),
    "not-utf8": (b'{"note": "caf\xff"}',
                 "{what} file {path} is not valid UTF-8 (invalid start byte at byte 13)"),
    "invalid-json": (b"{not json",
                     "{path}:1:2: invalid JSON (Expecting property name enclosed in double quotes)"),
    "nested-too-deep": (b"[" * 100000 + b"]" * 100000, "{path}: invalid JSON (nested too deeply)"),
    "huge-integer": (b"[" + b"1" * 5000 + b"]",
                     "{path}: invalid JSON (an integer has too many digits)"),
}


@pytest.mark.parametrize("what", ["state", "weights"])
@pytest.mark.parametrize("case", _BAD_FILES)
def test_unreadable_json_files_are_argument_errors(tmp_path, what, case):
    data, message = _BAD_FILES[case]
    path = tmp_path / "input.json"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    isdir = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    args = (["--state", str(path)] if what == "state"
            else ["--state", "ghz:3", "--weights", f"file:{path}"])
    result = run("profile", *args)
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert result.stderr == f"error: {message.format(what=what, path=path, isdir=isdir)}\n"


def test_a_path_holding_a_nul_cannot_be_read():
    # open() raises ValueError for it, which is not a JSON digit-limit error
    with pytest.raises(StateFileError) as state_error:
        load_state_file("a\x00b")
    assert str(state_error.value) == "cannot read state file a\x00b: embedded null byte"
    with pytest.raises(ArgumentError) as weights_error:
        _scheme("file:a\x00b", 3)
    assert str(weights_error.value) == "cannot read weights file a\x00b: embedded null byte"


@pytest.mark.parametrize("key", ["\u00b2", "\u0661", "0\u00b9", "\uff11"])
def test_classical_keys_take_ascii_digits_only(tmp_path, key):
    # superscripts, Arabic-Indic and fullwidth digits pass str.isdigit()
    path = tmp_path / "digits.json"
    payload = {key: 0.5, "0" * len(key): 0.5}
    path.write_text(json.dumps({"dims": [2] * len(key), "kind": "classical",
                                "payload": payload}), encoding="utf-8")
    result = run("profile", "--state", str(path))
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert f"key {key!r} is not a valid digit string" in errtext(result)


def test_profile_brute_dicke_value():
    result = run("profile", "--state", "dicke:4:2", "--mode", "brute")
    assert result.exit_code == 0
    assert json.loads(result.output)["dist"][1] == 2.50325833478


def test_profile_csv_matches_json():
    as_json = json.loads(run("profile", "--state", "ghz:4").output)
    as_csv = rows_from_csv(run("profile", "--state", "ghz:4",
                               "--output", "csv").output)
    assert len(as_csv) == 1
    row = as_csv[0]
    assert [float(v) for v in row["dist"].split(";")] == as_json["dist"]
    assert float(row["weaving"]) == as_json["weaving"]
    # partitions join with ";", blocks with "|", sites with ","
    assert row["argmin"].split(";")[0] == "0|1|2|3"


_TERA = 10 ** 12  # d^N is never formed: it would not fit in memory
_EXTRAS = {"d": [None, "2", "3"], "m": ["0", "2"], "a": ["0", "0.6"], None: [None]}
_BAD_FIELDS = {"name": ["", "nosuch", "GHZ"], "n": [-2, -1, 0, _TERA],
               "extra": ["nan", "inf", "1e400", "-1", "x"]}
_BAD_WEIGHTS = [-1.0, -1e308, 10 ** 400, None, True, "1", [1.0]]


@st.composite
def _profile_inputs(draw):
    """A family spec ``NAME:N[:X]`` and a weights document or None.  Each
    is valid (N up to 8; weights of the right length, some 1e308) or has
    one part broken: a junk name, N <= 0 or 10^12, or X not a usable
    number; a wrong length, a bad entry, a bad key, or both keys."""
    row = draw(st.sampled_from([f for f in FAMILIES.values() if f.spec]))
    fields = {"name": draw(st.sampled_from((row.name, *row.aliases))),
              "n": draw(st.integers(1, 8)),
              "extra": draw(st.sampled_from(_EXTRAS[row.param]))}
    broken = draw(st.sampled_from([None, *_BAD_FIELDS]))
    if broken:
        fields[broken] = draw(st.sampled_from(_BAD_FIELDS[broken]))
    spec = ":".join(str(v) for v in fields.values() if v is not None)
    if draw(st.booleans()):
        return spec, None
    size = max(min(fields["n"], 9) - 1, 0)
    values = draw(st.lists(st.one_of(st.floats(0.0, 3.0), st.just(1e308)),
                           min_size=size, max_size=size))
    key = draw(st.sampled_from(["omega", "big-omega"]))
    broken = draw(st.sampled_from([None, "length", "entry", "key", "both"]))
    if broken == "length":
        values.append(1.0)
    elif broken == "entry" and values:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_BAD_WEIGHTS))
    elif broken == "key":
        key = "Omega"
    doc = {key: values}
    if broken == "both":
        doc["omega"] = doc["big-omega"] = values
    return spec, doc


def _no_non_finite_cells(output, text):
    if output == "json":
        json.loads(text, parse_constant=lambda token: pytest.fail(token))
        return
    for row in rows_from_csv(text):
        for cell in row.values():
            for token in cell.replace("|", ";").split(";"):
                assert token.lower() not in ("nan", "inf", "-inf"), row


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=_profile_inputs(), output=st.sampled_from(["json", "csv"]))
def test_fuzzed_family_specs_and_weights_exit_with_a_documented_code(
        fuzz_dir, inputs, output):
    spec, weights = inputs
    args = ["profile", "--state", spec, "--output", output]
    if weights is not None:
        path = fuzz_dir / "weights.json"
        path.write_text(json.dumps(weights), encoding="utf-8")
        args += ["--weights", f"file:{path}"]
    result = run(*args)
    assert result.exit_code in (0, 2, 3, 4), (args, weights, errtext(result),
                                              result.exception)
    if result.exit_code == 0:
        _no_non_finite_cells(output, result.stdout)


def test_profile_unknown_family_is_an_argument_error():
    result = run("profile", "--state", "nosuch:4")
    assert result.exit_code == 2
    assert "nosuch" in errtext(result)


@pytest.mark.parametrize("spec", ["ghz:44", "a-family:44:0.5", "dicke:44:22",
                                  "bell-product:44", "classical-pair-product:60",
                                  f"ghz:{_TERA}", f"dicke:{_TERA}:1",
                                  f"bell-product:{_TERA}", f"a-family:{_TERA}:0.5",
                                  f"classical-pair-product:{_TERA}"])
def test_profile_oversized_family_is_a_capacity_error(spec):
    result = run("profile", "--state", spec)
    assert result.exit_code == 3
    assert "capacity limit" in errtext(result)


def test_profile_neural_complexity_of_invariant_state_beyond_brute_cap():
    result = run("profile", "--state", "classical:20")
    assert result.exit_code == 0, errtext(result)
    doc = json.loads(result.output)
    assert doc["mode"] == "symmetric-fast"
    assert doc["neural_complexity"] == 9.5


@pytest.mark.parametrize("spec, entries", [("classical:100000000", 2),
                                           ("classical:4:1000000", 1000000),
                                           ("classical-pair-product:26", 8192)])
def test_profile_oversized_classical_table_is_a_capacity_error(spec, entries):
    result = run("profile", "--state", spec)
    assert result.exit_code == 3, errtext(result)
    assert f"classical table of {entries} entries" in errtext(result)
    assert "capacity limit of 131072 digits" in errtext(result)


def test_profile_single_party_neural_complexity_is_a_float():
    result = run("profile", "--state", "ghz:1")
    assert result.exit_code == 0, errtext(result)
    assert '"neural_complexity": 0.0,' in result.output


@pytest.mark.parametrize("weights", ["nonsense", "delta:2", "file:/no/such/weights.json"])
def test_profile_single_party_validates_weights(weights):
    result = run("profile", "--state", "ghz:1", "--weights", weights)
    assert result.exit_code == 2, errtext(result)
    assert '"weaving"' not in result.output


def test_profile_single_party_accepts_an_empty_weights_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"omega": []}')
    result = run("profile", "--state", "ghz:1", "--weights", f"file:{path}")
    assert result.exit_code == 0, errtext(result)
    doc = json.loads(result.output)
    assert doc["weaving"] == 0.0 and doc["weights"] == f"file:{path}"


def test_profile_fast_mode_is_gone():
    result = run("profile", "--state", "ghz:4", "--mode", "fast")
    assert result.exit_code == 2 and "--mode" in errtext(result)


def test_captured_report_is_not_kept_alive():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main.main(["profile", "--state", "ghz:3"], standalone_mode=False)
    assert json.loads(out.getvalue())["N"] == 3
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_profile_single_party_state(tmp_path):
    path = tmp_path / "one.json"
    save_state_file(DensityState.from_amplitudes([1.0, 0.0], (2,)), str(path))
    result = run("profile", "--state", str(path))
    assert result.exit_code == 0, errtext(result)
    doc = json.loads(result.output)
    assert doc["N"] == 1
    assert doc["dist"] == [0.0]
    assert doc["genuine"] == []
    assert doc["weaving"] == 0.0


# -- scaling --------------------------------------------------------------


def test_scaling_bell_product_coefficient_is_one():
    result = run("scaling", "--family", "bell-product",
                 "--n-min", "8", "--n-max", "64")
    assert result.exit_code == 0, errtext(result)
    rows = json.loads(result.output)
    assert [r["N"] for r in rows] == [8, 16, 32, 64]
    for r in rows:
        assert r["normalization"] == "n"
        assert r["coefficient"] == 1.0
        assert r["weaving"] == float(r["N"])


def test_scaling_classical_tracks_ghz_identity():
    ghz = json.loads(run("scaling", "--family", "ghz",
                         "--n-min", "8", "--n-max", "32").output)
    cls = json.loads(run("scaling", "--family", "classical",
                         "--n-min", "8", "--n-max", "32").output)
    # both normalized by n*log2(n); the raw indices differ by exactly n-1
    for g, c in zip(ghz, cls):
        assert g["normalization"] == c["normalization"] == "n*log2(n)"
        assert abs(g["weaving"] - c["weaving"] - (g["N"] - 1)) < 1e-6


def test_scaling_a_family_needs_amplitude():
    result = run("scaling", "--family", "a-family",
                 "--n-min", "4", "--n-max", "8")
    assert result.exit_code == 2
    result = run("scaling", "--family", "a-family",
                 "--n-min", "4", "--n-max", "8", "--a", "0.6")
    assert result.exit_code == 0, errtext(result)
    rows = json.loads(result.output)
    assert all(r["weaving"] > 0 for r in rows)


def test_scaling_rejects_bad_ranges_and_file_weights():
    assert run("scaling", "--family", "ghz",
               "--n-min", "16", "--n-max", "8").exit_code == 2
    assert run("scaling", "--family", "ghz", "--n-min", "4", "--n-max", "8",
               "--weights", "file:w.json").exit_code == 2
    assert run("scaling", "--family", "nosuch").exit_code == 2


@pytest.mark.parametrize("args, code", [
    (("scaling", "--family", "ghz", "--n-min", "65536", "--n-max", "65536"), 0),
    (("scaling", "--family", "ghz", "--n-min", "8", "--n-max", "131072"), 3),
    (("scaling", "--family", "ghz", "--n-min", str(2 ** 40), "--n-max", str(2 ** 40)), 3),
    (("table", "--n", "131072", "--closed-form-only"), 3),
    (("table", "--n", str(2 ** 40), "--closed-form-only"), 3),
], ids=["scaling-2^16", "scaling-to-2^17", "scaling-2^40", "table-2^17", "table-2^40"])
def test_closed_form_n_is_capped(args, code):
    result = run(*args)
    assert result.exit_code == code, errtext(result)
    if code:
        assert "closed forms are capped at N=65536" in errtext(result)
        assert result.stdout == ""


_SIZES = st.one_of(st.integers(2, 12), st.integers(13, 300), st.integers(-3, 1),
                   st.sampled_from([MAX_CLOSED_FORM_N + 1, MAX_CLOSED_FORM_N + 7, 2 ** 40]))
_LOCAL_DIMS = st.one_of(st.integers(2, 4), st.sampled_from([7, 2 ** 40]), st.integers(-2, 1))
_AMPLITUDES = st.one_of(st.floats(0.0, 1.0), st.none(), st.floats(-0.5, 1.5),
                        st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _numeric_options(draw):
    """A ``table`` or ``scaling`` command line with drawn sizes, local
    dimension and amplitude: runnable sizes up to 300, anything larger
    beyond the closed-form cap.  ``scaling`` gets ``--d`` and ``--a`` only
    for a family that takes them, so that its draws can reach exit 0."""
    if draw(st.booleans()):
        args = ["table", "--n", draw(_SIZES), "--d", draw(_LOCAL_DIMS)]
        if draw(st.booleans()):
            args.append("--closed-form-only")
    else:
        family = draw(st.sampled_from(CF_FAMILIES))
        n_min = draw(_SIZES)
        n_max = draw(st.one_of(st.integers(n_min, n_min + 300), _SIZES))
        args = ["scaling", "--family", family, "--n-min", n_min, "--n-max", n_max]
        param = FAMILIES[family].param
        if param == "d":
            args += ["--d", draw(_LOCAL_DIMS)]
        a = draw(_AMPLITUDES) if param == "a" else None
        if a is not None:
            args += ["--a", a]
    return [str(arg) for arg in args]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(args=_numeric_options(), output=st.sampled_from(["json", "csv"]))
def test_fuzzed_numeric_options_exit_with_a_documented_code(args, output):
    result = run(*args, "--output", output)
    assert result.exit_code in (0, 2, 3, 4), (args, errtext(result), result.exception)
    if result.exit_code == 0:
        _no_non_finite_cells(output, result.stdout)


def test_table_computes_each_dicke_block_entropy_once(monkeypatch):
    fills = []

    def counted(n, m, ks, original=closed_forms.dicke_block_entropies):
        fills.append((n, m, tuple(ks)))
        return original(n, m, ks)

    monkeypatch.setattr(closed_forms, "dicke_block_entropies", counted)
    result = run("table", "--n", "64", "--closed-form-only")
    assert result.exit_code == 0, errtext(result)
    # two Dicke rows, each filled once with h(1) .. h(32) and mirrored to h(63);
    # h(64) is never asked for
    assert fills == [(64, 1, tuple(range(1, 33))), (64, 32, tuple(range(1, 33)))]


@pytest.mark.parametrize("args, message", [
    (("--family", "dicke-1", "--d", "7"), "family dicke-1 takes no local dimension, got d=7"),
    (("--family", "ghz", "--a", "0.5"), "family ghz takes no amplitude")])
def test_scaling_refuses_a_parameter_the_family_does_not_take(args, message):
    result = run("scaling", *args, "--n-min", "4", "--n-max", "4")
    assert result.exit_code == 2, errtext(result)
    assert message in errtext(result)


@pytest.mark.parametrize("args, weaving", [
    # 75094 * log2(5) = 174362.86835747...
    (("--family", "classical", "--d", "5", "--n-min", "8192", "--n-max", "8192"),
     174362.868357),
    (("--family", "a-family", "--a", "0.6", "--n-min", "65536", "--n-max", "65536"),
     756495.717912),
])
def test_scaling_large_n_weaving_has_its_last_digit(args, weaving):
    result = run("scaling", *args)
    assert result.exit_code == 0, errtext(result)
    assert json.loads(result.output)[0]["weaving"] == weaving


@pytest.mark.parametrize("command", [("table", "--n", "4", "--closed-form-only"),
                                     ("scaling", "--family", "ghz", "--n-max", "8")])
def test_closed_form_that_rises_with_k_exits_four(monkeypatch, command):
    def rising(fam):
        return np.array([1.0 + 1e-6 * (k == 2) if k < fam.n else 0.0
                         for k in range(1, fam.n + 1)])

    monkeypatch.setattr(closed_forms, "_dist_array", rising)
    result = run(*command)
    assert result.exit_code == 4, errtext(result)
    assert "dist(2) = 1.000001 exceeds dist(1) = 1.0 beyond 1e-9" in errtext(result)
    assert result.stdout == ""


def test_scaling_rejects_malformed_delta_weights():
    result = run("scaling", "--family", "ghz", "--n-max", "16",
                 "--weights", "delta:x")
    assert result.exit_code == 2
    assert "delta:x" in errtext(result)


def test_scaling_csv_fields():
    result = run("scaling", "--family", "ghz", "--n-min", "4",
                 "--n-max", "8", "--output", "csv")
    assert result.exit_code == 0
    rows = rows_from_csv(result.output)
    assert [r["N"] for r in rows] == ["4", "8"]
    assert all(r["units"] == "bits" for r in rows)


# -- check ----------------------------------------------------------------


def test_check_small_run_passes_and_is_deterministic():
    first = run("check", "--seed", "5", "--trials", "3")
    second = run("check", "--seed", "5", "--trials", "3")
    assert first.exit_code == 0, errtext(first)
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["passed"] is True
    assert doc["seed"] == 5 and doc["trials"] == 3
    assert len(doc["properties"]) == 8
    assert all(p["trials"] == 3 for p in doc["properties"])
    other = run("check", "--seed", "6", "--trials", "3")
    assert other.output != first.output


def test_check_failure_exits_five(monkeypatch):
    import corrweave.cli as cli_mod
    from corrweave.properties import run_property_suite as real_suite

    def broken_suite(seed, trials):
        return real_suite(seed, trials, perturb_dist=lambda v: v - 1e-3)

    monkeypatch.setattr(cli_mod, "run_property_suite", broken_suite)
    result = run("check", "--seed", "5", "--trials", "3")
    assert result.exit_code == 5
    doc = json.loads(result.output)
    assert doc["passed"] is False
    assert any(not p["passed"] for p in doc["properties"])


@pytest.mark.parametrize("output", ["json", "csv"])
def test_check_with_a_nan_margin_exits_four(monkeypatch, output):
    import corrweave.cli as cli_mod
    from corrweave.properties import run_property_suite as real_suite

    def nan_suite(seed, trials):
        return real_suite(seed, trials, perturb_dist=lambda v: math.nan)

    monkeypatch.setattr(cli_mod, "run_property_suite", nan_suite)
    result = run("check", "--seed", "5", "--trials", "3", "--output", output)
    assert result.exit_code == 4, (errtext(result), result.exception)
    assert result.stderr == (f"error: cannot write {output.upper()}: "
                             "nan is not a finite number\n")
    assert result.stdout == ""


def test_check_rejects_zero_trials():
    result = run("check", "--trials", "0")
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert result.stderr == "error: need at least 1 trial, got 0\n"


def test_check_rejects_a_negative_seed():
    result = run("check", "--seed", "-1", "--trials", "1")
    assert result.exit_code == 2, (errtext(result), result.exception)
    assert result.stderr == "error: need a seed >= 0, got -1\n"


def test_check_csv_output():
    result = run("check", "--seed", "5", "--trials", "2", "--output", "csv")
    assert result.exit_code == 0
    rows = rows_from_csv(result.output)
    assert len(rows) == 8
    assert all(r["passed"] == "true" for r in rows)


# -- plumbing -------------------------------------------------------------


def test_handle_errors_maps_numeric_to_exit_four():
    @click.command()
    @_handle_errors
    def boom():
        raise NumericError("inconsistent value")

    result = runner.invoke(boom, [])
    assert result.exit_code == 4
    assert "inconsistent value" in errtext(result)


def test_handle_errors_maps_linalg_error_to_exit_four():
    @click.command()
    @_handle_errors
    def boom():
        raise np.linalg.LinAlgError("SVD did not converge")

    result = runner.invoke(boom, [])
    assert result.exit_code == 4
    assert "SVD did not converge" in errtext(result)


def test_json_output_rejects_non_finite_numbers(tmp_path):
    @click.command()
    @_handle_errors
    def report():
        _emit({"weaving": math.nan}, [], "json")

    result = runner.invoke(report, [])
    assert result.exit_code == 4
    assert "NaN" not in result.output
    state = DensityState.from_amplitudes([math.nan, 0.0], (2,), validate=False)
    with pytest.raises(NumericError):
        save_state_file(state, str(tmp_path / "nan.json"))


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 1e-17, 1.7976931348623157e308, 5e-324]))
_PARTITIONS = st.integers(1, 12).flatmap(
    lambda n: st.integers(1, n).map(lambda k: compact_partition(n, k).blocks))
_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=5),
              _PARTITIONS),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=_DOCS)
@example(doc={"N": 1, "dims": [2], "dist": (0.0,), "genuine": (), "argmin": [((0,),)],
              "d\u00e9j\u00e0 \u2713": {}, "mixed": [1, 2.5, -0.0, True, None]})
def test_json_writer_matches_json_dumps_of_the_rounded_doc(doc):
    want = json.dumps(oracle_round_floats(doc), indent=2, allow_nan=False)
    assert "".join(_json_chunks(doc)) == want


def test_json_writer_leaves_no_reference_cycles():
    # a cycle would keep every chunk of the report alive until a full collection
    doc = {"dist": [0.5, 0.25], "argmin": [((0, 1), (2,))], "mode": "brute"}
    gc.collect()
    gc.disable()
    try:
        "".join(_json_chunks(doc))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_non_finite_numbers(bad):
    with pytest.raises(NumericError):
        "".join(_json_chunks({"dist": [0.5, (1, 2), [bad]]}))

    # a bad scalar, or a bad value in a float list, after another key is formatted
    for doc in ({"argmin": [((0,),)], "weaving": bad},
                {"argmin": [((0,),)], "dist": [0.5, bad]},
                {"argmin": [SetPartition([(0, 2), (1,)])], "dist": [0.5, bad]}):
        @click.command()
        @_handle_errors
        def report():
            _emit(doc, [], "json")

        result = runner.invoke(report, [])
        assert result.exit_code == 4 and not result.stdout
        assert "is not a finite number" in result.stderr


@st.composite
def _argmin_docs(draw):
    """A list of SetPartitions of one N, nested 0-2 levels deep: random
    ones at N <= 40 (blocks seldom contiguous), compact ones at N <= 300,
    or a mix of the two.  Random blocks are built from numpy ints, so an
    index above 256 is an int of its own."""
    kind = draw(st.sampled_from(["random", "compact", "mix"]))
    n = draw(st.integers(1, 40 if kind == "random" else 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        if kind == "random" or kind == "mix" and rng.random() < 0.5:
            labels = rng.integers(0, rng.integers(1, n + 1), size=n)
            parts.append(SetPartition([np.flatnonzero(labels == v) for v in set(labels)]))
        else:
            parts.append(compact_partition(n, int(rng.integers(1, n + 1))))
    doc = {"argmin": parts}
    for _ in range(draw(st.integers(0, 2))):
        doc = draw(st.sampled_from([[doc], {"row": doc, "N": n}]))
    return doc, parts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_argmin_docs())
def test_partition_lists_are_written_as_json_dumps_lays_out_their_blocks(case):
    doc, parts = case

    def blocks(obj):
        if isinstance(obj, dict):
            return {key: blocks(item) for key, item in obj.items()}
        if isinstance(obj, list):
            return [blocks(item) for item in obj]
        return obj.blocks if isinstance(obj, SetPartition) else obj

    assert "".join(_json_chunks(doc)) == json.dumps(blocks(doc), indent=2)
    # '{"argmin": ', one chunk per partition, the list's close, the dict's close
    assert len(list(_json_chunks({"argmin": parts}))) == len(parts) + 3


def test_profile_report_is_written_one_partition_at_a_time(monkeypatch):
    rows = []
    monkeypatch.setattr(cli, "_emit", lambda doc, *_: rows.append(doc))
    assert run("profile", "--state", "classical:1000").exit_code == 0

    class Sink(io.TextIOBase):
        size = 0

        def write(self, text):
            self.size += len(text)
            return len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            _emit(rows[0], rows, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 13.5 MB report, of which no more than a few partitions are held at once
    assert sink.size > 13_000_000
    assert peak < 1_000_000, peak


@settings(max_examples=500, deadline=None, derandomize=True)
@given(xs=st.lists(_FLOATS, max_size=20))
def test_float_texts_are_the_reprs_of_the_rounded_floats(xs):
    assert _float_texts(xs) == [float.__repr__(_round12(x)) for x in xs]


def test_float_texts_at_layout_and_range_boundaries():
    xs = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
          1e-5, 1e-4, 999999999999.5, -999999999999.5]
    for e in range(-20, 21):
        x = 10.0 ** e
        xs += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    xs += [float(10 ** e) for e in range(11, 18)]
    xs = [float(x) for x in xs]
    assert _float_texts(xs) == [float.__repr__(_round12(x)) for x in xs]
    assert _float_texts([999999999999.5, 1e-5, 1e-4, -0.0, 3.0]) == [
        "1000000000000.0", "1e-05", "0.0001", "-0.0", "3.0"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=st.one_of(_FLOATS, st.lists(st.lists(st.one_of(_FLOATS, st.integers()),
                                                  max_size=4), max_size=4)))
def test_csv_cells_need_no_rounding_first(value):
    assert _cell(value) == _cell(oracle_round_floats(value))


@pytest.mark.parametrize("output, digest", [
    ("json", "43012355dbef3ee22d5bb1fb4ff60fc5f12c921fdcac72f44d39a9157869c095"),
    ("csv", "13ddcf3527cbd119a34c6fe0c75c2f8ef7c279754a09222e0af5acb8f6da7b3a")])
def test_classical_256_report_bytes_are_pinned(output, digest):
    result = run("profile", "--state", "classical:256", "--output", output)
    assert result.exit_code == 0, errtext(result)
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("args, advice", [
    (["table", "--n", "4", "--d", "11"], "pass --closed-form-only"),
    (["profile", "--state", "ghz:13"], "`corrweave scaling --family ghz --n-min 13 --n-max 13`"),
    (["profile", "--state", "a-family:13:0.6"],
     "`corrweave scaling --family a-family --a 0.6 --n-min 13 --n-max 13`"),
    (["profile", "--state", "dicke:100:7"], "no closed form covers dicke:100:7"),
    (["profile", "--state", "classical-pair-product:26"],
     "--family classical-pair-product --n-min 26 --n-max 26`"),
    (["profile", "--state", "dicke:13:6"], "no closed form covers dicke:13:6"),
    (["profile", "--state", "classical:4097"],
     "profiles are capped at N=4096; closed forms run to N = 65536: use "
     "`corrweave scaling --family classical --n-min 4097 --n-max 4097`")])
def test_capacity_errors_name_a_command_line_step(args, advice):
    result = run(*args)
    assert result.exit_code == 3, errtext(result)
    assert advice in errtext(result)
    assert "max_dim" not in errtext(result)


@pytest.mark.parametrize("spec, families", [
    ("a-family:13:0.6", {"a-family"}), ("ghz:8:3", {"ghz"}), ("ghz:13", {"ghz"}),
    ("dicke:100:7", set()), ("ghz:70000", set()), ("dicke:1000000000000:1", set()),
    ("dicke:44:1", {"dicke-1"}), ("dicke:44:22", {"dicke-half"}),
    ("classical-pair-product:26", {"classical-pair-product"}),
    ("classical:4:1000000", {"classical", "qudit-classical"}),
    ("bell-product:44:3", {"bell-product", "qudit-bell-product"}),
    ("dicke:13:1", {"dicke-1"}), ("dicke:14:7", {"dicke-half"}), ("dicke:13:6", set())])
def test_capacity_advice_names_only_commands_that_print_the_state(spec, families):
    """Every command the advice names prints a row of the spec's family at
    its N, d and a; with no closed form for it, or N above the cap, the
    advice names none."""
    result = run("profile", "--state", spec)
    assert result.exit_code == 3, errtext(result)
    commands = re.findall(r"`corrweave ([^`]*)`", errtext(result))
    assert bool(commands) == bool(families), errtext(result)
    fam = StateFamily.parse(spec)
    for command in commands:
        done = run(*command.split())
        assert done.exit_code == 0, (command, errtext(done))
        rows = [row for row in json.loads(done.stdout) if row["family"] in families
                and row["N"] == fam.n and row.get("d", fam.d) == fam.d]
        assert rows, command
        for row in rows:
            instance = ClosedFormFamily(row["family"], fam.n, d=fam.d, a=fam.a)
            want = cf_weaving(instance, WeightScheme.order_weighted(fam.n))
            assert row["weaving"] == _round12(want), command


def test_version_flag():
    result = run("--version")
    assert result.exit_code == 0
    assert "corrweave" in result.output


def test_cli_import_loads_no_scipy():
    code = ("import sys, corrweave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(corrweave.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_parallel_option_is_gone():
    for command in ("table", "profile"):
        result = run(command, "--parallel", "2")
        assert result.exit_code == 2 and "--parallel" in errtext(result)


def test_round12_is_idempotent_through_text():
    values = [math.pi, 2.503258334776, 1e-17, 0.1 + 0.2, -3.5e12]
    for v in values:
        r = _round12(v)
        assert float(format(r, ".12g")) == r
        assert json.loads(json.dumps(r)) == r
