"""Command-line front end.

Subcommands: ``table`` (closed-form family table with matrix-pipeline
cross-check), ``profile`` (full correlation profile of a named family or a
state file), ``scaling`` (closed-form weaving sweeps over system size),
``check`` (randomized property suite).

All numeric output is in bits, rounded to 12 significant digits before
serialization so JSON and CSV reports parse back bit-exactly.  Exit codes:
0 success, 2 argument error, 3 capacity error, 4 numeric/consistency
error, 5 property-suite failure.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from csv import writer as csv_writer
from itertools import accumulate, chain, repeat
from json.decoder import JSONArray, JSONObject, WHITESPACE
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

import click
import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
# cf_dist, cf_genuine and cf_weaving stay importable for callers that patch them.
from .closed_forms import (CF_FAMILIES, FAMILIES, MAX_CLOSED_FORM_N,  # noqa: F401
                           ClosedFormFamily, cf_dist, cf_genuine, cf_profile,
                           cf_scaling_sweep, cf_weaving, check_closed_form_n)
from .correlations import (MODE_BRUTE, MODE_CLOSED_FORM, WeightScheme,
                           neural_complexity, profile, weaving)
from .errors import (ArgumentError, CapacityError, CorrweaveError,
                     NumericError, StateFileError)
from .partitions import SetPartition
from .properties import run_property_suite
# make_* are not called here; they stay importable for callers that patch them.
from .states import (StateFamily, make_bell_product, make_classical,  # noqa: F401
                     make_classical_pair_product, make_dicke, make_ghz)
from .tensor import REP_CLASSICAL, REP_DENSE, REP_PURE, DensityState, _dense_dim

#: Disagreement between closed-form and matrix values that flags a table row.
AGREE_TOL = 1e-8
#: Largest N the table command will cross-check with the matrix pipeline.
MATRIX_N_CAP = 8

_EXIT_BY_ERROR = ((CapacityError, 3), (ArgumentError, 2), (CorrweaveError, 4))
_SCAN = json.JSONDecoder().scan_once  # json's own C scanner, as json.loads uses it
_PAIRS_START = re.compile(r"\[[ \t\n\r]*\[([ \t\n\r]*\[)?")  # a list of pairs, or of lists
# the first "]" that no ", [" follows, and the "]" after it: where a row of pairs ends
# (json.dumps' ", [" and ",[" are tried first, for speed)
_ROW_END = re.compile(r"\](?!, \[|,\[|[ \t\n\r]*,[ \t\n\r]*\[)[ \t\n\r]*\]?")
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


def _handle_errors(func):
    """Exit with the code of the error's class; numpy's ``LinAlgError``
    counts as a :class:`NumericError`."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except LinAlgError as exc:
            error: CorrweaveError = NumericError(f"linear algebra failed: {exc}")
        except CorrweaveError as exc:
            error = exc
        for cls, code in _EXIT_BY_ERROR:
            if isinstance(error, cls):
                click.echo(f"error: {error}", file=sys.stderr)
                sys.exit(code)
    return wrapper


@contextmanager
def _capacity_advice(advice: str):
    """Append ``advice``, a step the command line offers, to a
    CapacityError raised in the block."""
    try:
        yield
    except CapacityError as exc:
        raise CapacityError(f"{exc}; {advice}") from None


def _closed_form_advice(family: StateFamily) -> str:
    """The closed-form commands that print ``family``'s instance: those of
    the :data:`FAMILIES` rows that build it (its own row and its aliases,
    or the Dicke rows whose ``excitations(N)`` is its ``m``), ``scaling``
    for the first such row and ``table`` if one is a table row at its ``d``."""
    n, d, a = family.n, family.d, family.a
    if n > MAX_CLOSED_FORM_N:
        return f"closed forms run only to N = {MAX_CLOSED_FORM_N}"
    if family.m is None:
        names = (family.family, *FAMILIES[family.family].aliases)
    else:
        names = [row.name for row in FAMILIES.values()
                 if row.excitations and row.excitations(n) == family.m]
    rows = [FAMILIES[name] for name in names if name in CF_FAMILIES
            and not (FAMILIES[name].even_only and n % 2)]
    qudit = f" --d {d}" if d != 2 else ""
    steps = []
    if rows:
        amplitude = "" if a is None else f" --a {a!r}"
        steps.append(f"`corrweave scaling --family {rows[0].name}{qudit}{amplitude} "
                     f"--n-min {n} --n-max {n}`")
    if any(row.table is not None and (row.qudit or d == 2) for row in rows):
        steps.append(f"`corrweave table --n {n}{qudit} --closed-form-only`")
    if not steps:
        return f"no closed form covers {family.label()}"
    return f"closed forms run to N = {MAX_CLOSED_FORM_N}: use {' or '.join(steps)}"


# -- numeric formatting --------------------------------------------------


def _round12(x: float) -> float:
    """Round to 12 significant digits; the result reprints exactly."""
    return float(format(float(x), ".12g"))


def _float_texts(xs) -> list[str]:
    """The text of each float in ``xs`` rounded by :func:`_round12`, as
    ``repr`` prints it; a NaN or an infinity raises a NumericError.

    One ``%.12g`` pass prints the digits of every rounding, and no other
    decimal of at most 15 digits parses to the same double, so they are the
    digits ``repr`` prints.  Only the layout can differ: ``%.12g`` leaves
    the ``.0`` off an integral value, and uses an exponent from 1e12 where
    ``repr`` waits until 1e16, so exponent texts are reprinted.
    """
    if not all(map(math.isfinite, xs)):
        bad = next(x for x in xs if not math.isfinite(x))
        raise NumericError(f"cannot write JSON: {bad} is not a finite number")
    return [float.__repr__(float(t)) if "e" in t else t if "." in t else t + ".0"
            for t in ("%.12g " * len(xs) % tuple(xs)).split()]


def _json_chunks(doc) -> Iterator[str]:
    """The chunks of ``doc`` as ``json.dumps(doc, indent=2)`` writes it,
    every float first rounded by :func:`_round12` and a SetPartition
    written as its blocks; a NaN or an infinity raises a NumericError.

    Every chunk is made, and every float checked, before this returns,
    except those of a list of SetPartitions (a profile's argmin, N^2
    indices): its chunks, one per partition, are made as they are read,
    and formatting ints cannot fail.  A list of ints or of floats is one
    chunk, its floats from one :func:`_float_texts` pass."""
    out: list = []
    _write_json(doc, "", out.append)
    return chain.from_iterable([c] if isinstance(c, str) else c for c in out)


def _write_json(obj, pad: str, write) -> None:
    """Pass the text of ``obj``, indented by ``pad``, to ``write``: a
    string, or for a list of SetPartitions an iterator of strings."""
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        write(_float_texts((obj,))[0])
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        types = set(map(type, obj))
        if not obj:
            write("[]")
        elif types == {SetPartition}:
            write(_partition_chunks(obj, pad))
        elif types == {int} or types == {float}:
            texts = map(int.__repr__, obj) if int in types else _float_texts(obj)
            sep = ",\n" + inner
            write(f"[\n{inner}{sep.join(texts)}\n{pad}]")
        else:
            sep = "[\n" + inner
            for item in obj:
                write(sep)
                _write_json(item, inner, write)
                sep = ",\n" + inner
            write(f"\n{pad}]")
    elif isinstance(obj, dict):
        inner = pad + "  "
        if not obj:
            write("{}")
        else:
            sep = "{\n" + inner
            for key, item in obj.items():
                write(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(item, inner, write)
                sep = ",\n" + inner
            write(f"\n{pad}}}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _partition_chunks(parts, pad: str) -> Iterator[str]:
    """The text of ``parts``, a nonempty list of SetPartitions indented by
    ``pad``, one chunk per partition.  When a partition's labels never fall,
    each block is a run of indices, its text one slice of the text of the
    indices 0..N-1, made once; any other partition is joined index by index."""
    item, block, index = pad + "  ", pad + "    ", "\n" + pad + "      "
    pieces = [f"{index}{i}," for i in range(max(p.n for p in parts))]
    start = [0, *accumulate(map(len, pieces))]
    text = "".join(pieces)
    head, sep, close = f"\n{item}[\n{block}[", f"\n{block}],\n{block}[", f"\n{block}]\n{item}]"
    for lead, part in zip(chain("[", repeat(",")), parts):
        cuts = (part.labels[1:] != part.labels[:-1]).nonzero()[0].tolist()
        if len(cuts) == part.labels[-1]:  # labels change once a block iff they never fall
            ends = [start[i + 1] for i in (-1, *cuts, part.n - 1)]
            blocks = [text[a:b - 1] for a, b in zip(ends, ends[1:])]
        else:
            blocks = [index + f",{index}".join(map(int.__repr__, b)) for b in part.blocks]
        yield "".join((lead, head, sep.join(blocks), close))
    yield f"\n{pad}]"


def _cell(value, seps=(";", "|", ",")):
    """``value`` as CSV text; a NaN or an infinity raises a NumericError."""
    if value is None:
        return ""
    if isinstance(value, SetPartition):
        value = value.blocks
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericError(f"cannot write CSV: {value} is not a finite number")
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return seps[0].join(_cell(v, seps[1:]) for v in value)
    return str(value)


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a finite number (booleans are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _emit(doc, rows, output):
    """Print the report: ``doc`` as JSON, or ``rows`` as CSV with the
    first row's keys as the header.  The JSON chunks are written as they
    are, never joined into a copy of the report.  Every chunk that holds a
    float is made and checked before the first is written, so a report
    refused for a NaN or an infinity writes nothing; only the argmin's
    chunks, which hold ints alone, are made while the report is written,
    one partition at a time."""
    if output == "json":
        sys.stdout.writelines(_json_chunks(doc))
        sys.stdout.write("\n")
        sys.stdout.flush()
        return
    fields = list(rows[0])
    buf = io.StringIO()
    w = csv_writer(buf, lineterminator="\n")
    w.writerow(fields)
    for row in rows:
        w.writerow([_cell(row.get(f)) for f in fields])
    click.echo(buf.getvalue(), nl=False, file=sys.stdout)


# -- input files: weight schemes and states ------------------------------


def _read_json(path: str, what: str, error: type[CorrweaveError]):
    """The document in the UTF-8 JSON file at ``path``, as :func:`_scan_json`
    reads it; a file that cannot be read or parsed raises ``error``, naming
    it a ``what`` file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path} is not valid UTF-8 "
                    f"({exc.reason} at byte {exc.start})") from None
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise error(f"cannot read {what} file {path}: {exc}") from None
    with suppress(StopIteration, ValueError, RecursionError):
        return _scan_json(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{path}: invalid JSON (nested too deeply)") from None
    except ValueError:  # an integer beyond Python's int-to-str digit limit
        raise error(f"{path}: invalid JSON (an integer has too many digits)") from None


def _scheme(spec: str, n: int) -> WeightScheme:
    if spec.startswith("file:"):
        return _scheme_from_file(spec, n)
    return WeightScheme.named(spec, n)


def _scheme_from_file(spec: str, n: int) -> WeightScheme:
    path = spec.split(":", 1)[1]
    doc = _read_json(path, "weights", ArgumentError)
    if not isinstance(doc, dict) or len(doc.keys() & {"omega", "big-omega"}) != 1:
        raise ArgumentError(
            f"weights file {path} must hold exactly one of 'omega' or 'big-omega'")
    key = "omega" if "omega" in doc else "big-omega"
    values = doc[key]
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ArgumentError(f"weights file {path}: {key} must be a list of finite numbers")
    if len(values) != n - 1:
        raise ArgumentError(
            f"weights file {path}: {key} has {len(values)} entries, need {n - 1}")
    builder = (WeightScheme.from_omega if key == "omega"
               else WeightScheme.from_big_omega)
    return builder(values, name=spec)


def load_state_file(path: str) -> DensityState:
    """Parse a UTF-8 JSON state file: {dims, kind, payload}.  A payload is
    read a row at a time (:func:`_scan_json`), each row of pairs as one flat
    list of json's numbers, never as a tree of lists: reading peaks at about
    twice the file's size, its bytes and its text while the text is decoded."""
    doc = _read_json(path, "state", StateFileError)
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be a JSON object")
    for key in ("dims", "kind", "payload"):
        if key not in doc:
            raise StateFileError(f"{path}: missing field {key!r}")
    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(d, int) and d >= 2 for d in dims)):
        raise StateFileError(f"{path}: field 'dims' must be a list of integers >= 2")
    # compared, never hashed: the kind may be any JSON value
    read = next((row[2] for row in _STATE_FILE_KINDS if row[0] == doc["kind"]), None)
    if read is None:
        *kinds, last = (row[0] for row in _STATE_FILE_KINDS)
        raise StateFileError(f"{path}: field 'kind' must be {', '.join(kinds)}, "
                             f"or {last}, got {doc['kind']!r}")
    try:
        return read(doc["payload"], dims, path)
    except StateFileError:
        raise
    except ArgumentError as exc:
        raise StateFileError(f"{path}: field 'payload': {exc}") from None


def _scan_json(text: str):
    """``json.loads(text)``, but a top-level ``payload`` opening ``[[`` (pure)
    or ``[[[`` (mixed rows) is read a row at a time: a row opening ``[[`` as
    :func:`_float_pairs` of its text up to ``_ROW_END``, which lies in the row
    if it is JSON, or else as json scans it.  Text that is not one JSON
    document raises StopIteration, ValueError or RecursionError."""
    ws, keys = WHITESPACE.match, {}

    def value(s, j, pairs=True):
        end = pairs and _PAIRS_START.match(s, j) and _ROW_END.search(s, j)
        if end:
            with suppress(ValueError, OverflowError):  # no row of pairs; an int past float range
                return _float_pairs(s[j:end.end()]), end.end()
        return _SCAN(s, j)

    def member(s, i):
        key, _ = keys.popitem()  # the member's key, which JSONObject files in keys
        start = _PAIRS_START.match(s, i) if key == "payload" else None
        if start and start[1]:
            return JSONArray((s, i + 1), value)
        return value(s, i, pairs=start is not None)  # one frame deep, as json.loads scans it

    i = ws(text).end()
    if text.startswith("{", i):  # json's own object parser, one member hook
        doc, i = JSONObject((text, i + 1), True, member, None, None, keys)
    else:
        doc, i = _SCAN(text, i)
    if ws(text, i).end() != len(text):
        raise ValueError(f"extra data at {i}")
    return doc


def _float_pairs(row: str):
    """The (p, 2) float array of ``row``, a ``[`` and the text after it up
    to ``_ROW_END``, if it lists p [re, im] pairs, else ValueError.  Less
    its JSON whitespace and number bytes the row must read
    ``[[,],...,[,]]``; json's scanner then reads it as one flat list, inner
    brackets blanked, which fails exactly where json refuses the row: the
    cut leaves no number between pairs to fill an empty slot."""
    raw = row.encode()
    skeleton = raw.translate(None, b"0123456789.eE+- \t\n\r")
    if skeleton != b"[%s[,]]" % (b"[,]," * ((len(skeleton) - 5) // 4)):
        raise ValueError("not a row of [re, im] pairs")
    flat, _ = _SCAN("[%s]" % raw.translate(_BLANK_BRACKETS).decode(), 0)
    return np.array(flat, dtype=float).reshape(-1, 2)


def _complex_payload(payload, shape, path):
    """A pure (``shape`` = (dim,)) or mixed (dim, dim) payload of [re, im]
    pairs as a complex array.

    A pure payload is one row and a mixed payload's entries are rows, each
    a (dim, 2) array of :func:`_scan_json`; they are stacked, checked to be
    finite, and ``payload`` emptied to free them before the state is built.
    Only when that fails are the entries walked, as scanned, to name the
    first bad one.
    """
    dim = shape[0]
    rows = [payload] if len(shape) == 1 else payload
    if (type(rows) is list and len(rows) == dim ** (len(shape) - 1)  # 1 row, or dim
            and all(type(r) is np.ndarray and r.shape == (dim, 2) for r in rows)):
        floats = np.stack(rows)
        if np.isfinite(floats).all():
            rows.clear()
            return floats.view(complex).reshape(shape)
    if len(shape) == 1:  # an array entry was scanned as a list of pairs: no pair either
        _check_pairs(payload, dim, path)
    elif not isinstance(payload, list) or len(payload) != dim:
        raise StateFileError(f"{path}: field 'payload' must be a {dim}x{dim} matrix")
    else:
        for i, row in enumerate(payload):
            _check_pairs(row, dim, path, field=f"payload[{i}]")
    raise StateFileError(f"{path}: field 'payload' must hold [re, im] pairs "
                         "of finite numbers")


def _check_pairs(entries, length, path, field="payload"):
    """Raise on the first entry of ``entries`` that is not an [re, im] pair
    of finite numbers; a row array is checked as its list of pairs."""
    entries = entries.tolist() if type(entries) is np.ndarray else entries
    if not isinstance(entries, list) or len(entries) != length:
        raise StateFileError(f"{path}: field {field!r} must list {length} [re, im] pairs")
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise StateFileError(f"{path}: field {field!r} entry {i} must be an "
                                 "[re, im] pair of finite numbers")


def _read_classical(payload, dims, path):
    if not isinstance(payload, dict):
        raise StateFileError(f"{path}: field 'payload' must map digit strings to probabilities")
    if any(d > 10 for d in dims):
        raise StateFileError(f"{path}: digit-string keys support local dimensions up to 10")
    table = {}
    for key, p in payload.items():
        if (len(key) != len(dims) or not (key.isascii() and key.isdigit())
                or any(int(c) >= d for c, d in zip(key, dims))):
            raise StateFileError(
                f"{path}: field 'payload' key {key!r} is not a valid digit "
                f"string for dims {dims}")
        if not _is_number(p):
            raise StateFileError(
                f"{path}: field 'payload' value for {key!r} must be a finite number")
        table[tuple(int(c) for c in key)] = float(p)
    return DensityState.from_probabilities(table, dims)


def _write_classical(state):
    if any(d > 10 for d in state.dims):
        raise ArgumentError("digit-string keys support local dimensions up to 10")
    return {"".join(map(str, k)): p for k, p in sorted(state.probabilities().items())}


#: One row per state-file kind: (kind, representation, payload reader
#: (payload, dims, path) -> state, payload writer state -> payload).  A pure
#: or mixed reader checks dims against the dense cap before the payload,
#: which holds dim or dim^2 entries.
_STATE_FILE_KINDS = (
    ("pure", REP_PURE, lambda payload, dims, path: DensityState.from_amplitudes(
        _complex_payload(payload, (_dense_dim(dims),), path), dims),
     lambda state: [[z.real, z.imag] for z in state.amplitudes()]),
    ("mixed", REP_DENSE, lambda payload, dims, path: DensityState.from_matrix(
        _complex_payload(payload, (_dense_dim(dims),) * 2, path), dims),
     lambda state: [[[z.real, z.imag] for z in row] for row in state.to_matrix()]),
    ("classical", REP_CLASSICAL, _read_classical, _write_classical),
)


def save_state_file(state: DensityState, path: str) -> None:
    """Write a state file that :func:`load_state_file` parses back."""
    kind, _, _, write = next(row for row in _STATE_FILE_KINDS if row[1] == state.rep)
    doc = {"dims": list(state.dims), "kind": kind, "payload": write(state)}
    try:  # a NaN or an infinity raises a NumericError
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write JSON: {exc}") from None
    Path(path).write_text(text, encoding="utf-8")


# -- commands ------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="corrweave")
def main():
    """Correlation orders, weaving index, and closed-form family tables."""


@main.command("table")
@click.option("--n", required=True, type=int, help="Number of parties.")
@click.option("--d", default=2, show_default=True, type=int,
              help="Local dimension of the qudit rows.")
@click.option("--weights", default="k-1", show_default=True)
@click.option("--closed-form-only", is_flag=True,
              help="Skip the matrix-pipeline cross-check (any N).")
@click.option("--output", default="json", show_default=True,
              type=click.Choice(["json", "csv"]))
@_handle_errors
def cmd_table(n, d, weights, closed_form_only, output):
    """One row per named family: dist/genuine per order, total, weaving.

    Every row is a closed form; for N up to 8 each value is recomputed by
    the brute-force matrix pipeline and disagreements beyond 1e-8 are
    flagged in the 'agree' column.
    """
    if n < 2:
        raise ArgumentError(f"table needs n >= 2, got {n}")
    if n > MATRIX_N_CAP and not closed_form_only:
        raise CapacityError(
            f"matrix cross-check is capped at N={MATRIX_N_CAP}; "
            "pass --closed-form-only for larger N")
    check_closed_form_n(n)
    scheme = _scheme(weights, n)
    rows = []
    for entry in sorted((f for f in FAMILIES.values() if f.table is not None),
                        key=lambda f: f.table):
        if n % 2 and entry.even_only:
            continue
        family = entry.name
        d_eff = d if entry.qudit else 2
        cf = cf_profile(ClosedFormFamily(family, n, d=d_eff))
        row = {"family": family, "N": n, "d": d_eff, "dist": list(cf.dist),
               "genuine": list(cf.genuine), "total": cf.total,
               "weaving": weaving(cf, scheme), "weights": scheme.name,
               "mode": MODE_CLOSED_FORM, "matrix_max_dev": None, "agree": None,
               "units": "bits", "version": __version__}
        if not closed_form_only:
            with _capacity_advice("pass --closed-form-only to skip the matrix cross-check"):
                state = StateFamily(family, n, d=d_eff).build()
            prof = profile(state, mode=MODE_BRUTE)
            dev = max(  # total is dist[0] in both profiles
                max(abs(a - b) for a, b in zip(cf.dist + cf.genuine,
                                               prof.dist + prof.genuine)),
                abs(row["weaving"] - weaving(prof, scheme)))
            row["mode"] = f"{MODE_CLOSED_FORM}+{MODE_BRUTE}"
            row["matrix_max_dev"] = dev
            row["agree"] = dev <= AGREE_TOL
        rows.append(row)
    _emit(rows, rows, output)


@main.command("profile")
@click.option("--state", "state_spec", required=True,
              help="Family spec (e.g. ghz:4, dicke:4:2) or a JSON state file.")
@click.option("--weights", default="k-1", show_default=True)
@click.option("--mode", default="auto", show_default=True,
              type=click.Choice(["auto", "brute"]))
@click.option("--output", default="json", show_default=True,
              type=click.Choice(["json", "csv"]))
@_handle_errors
def cmd_profile(state_spec, weights, mode, output):
    """Correlation profile of one state: distances and genuine correlations
    per order, total, weaving, neural complexity, minimizing partitions."""
    if os.path.exists(state_spec):
        label_key, label = "file", state_spec
        state = load_state_file(state_spec)
        prof = profile(state, mode=mode)
    else:
        label_key = "family"
        family = StateFamily.parse(state_spec)
        label = family.label()
        with _capacity_advice(_closed_form_advice(family)):
            state = family.build()
            prof = profile(state, mode=mode)
    n = state.n_parties
    scheme = _scheme(weights, n)
    weave = weaving(prof, scheme)
    neural = neural_complexity(state)
    dims = list(state.dims)
    row = {label_key: label, "N": n,
           "d": dims[0] if len(set(dims)) == 1 else None, "dims": dims,
           "dist": list(prof.dist), "genuine": list(prof.genuine),
           "total": prof.total, "weaving": weave, "neural_complexity": neural,
           "argmin": list(prof.argmin),
           "weights": scheme.name, "mode": prof.mode,
           "units": "bits", "version": __version__}
    _emit(row, [row], output)


@main.command("scaling")
@click.option("--family", required=True, type=click.Choice(CF_FAMILIES))
@click.option("--n-min", default=8, show_default=True, type=int)
@click.option("--n-max", default=4096, show_default=True, type=int)
@click.option("--d", default=2, show_default=True, type=int)
@click.option("--a", default=None, type=float,
              help="Amplitude for the a-family.")
@click.option("--weights", default="k-1", show_default=True,
              help="Named scheme only (k-1, uniform, delta:K).")
@click.option("--output", default="json", show_default=True,
              type=click.Choice(["json", "csv"]))
@_handle_errors
def cmd_scaling(family, n_min, n_max, d, a, weights, output):
    """Closed-form weaving index across system sizes (N doubling from
    --n-min to --n-max), with the family's natural normalization."""
    if n_min < 2 or n_max < n_min:
        raise ArgumentError(f"need 2 <= n-min <= n-max, got {n_min}..{n_max}")
    if weights.startswith("file:"):
        raise ArgumentError("scaling sweeps accept named weight schemes only")
    check_closed_form_n(n_max)
    n_values = []
    n = n_min
    while n <= n_max:
        n_values.append(n)
        n *= 2
    points = cf_scaling_sweep(family, n_values, d=d, a=a, weights=weights)
    rows = [{"family": family, "N": p.n, "weaving": p.weaving,
             "normalization": p.normalization, "coefficient": p.coefficient,
             "weights": weights, "units": "bits", "version": __version__}
            for p in points]
    _emit(rows, rows, output)


@main.command("check")
@click.option("--seed", default=1234, show_default=True, type=int)
@click.option("--trials", default=200, show_default=True, type=int,
              help="Trials per property.")
@click.option("--output", default="json", show_default=True,
              type=click.Choice(["json", "csv"]))
@_handle_errors
def cmd_check(seed, trials, output):
    """Randomized property suite; exit status 5 if any property fails."""
    results = run_property_suite(seed, trials)
    rows = [{"property": r.name, "trials": r.trials,
             "worst_margin": r.worst_margin, "tolerance": r.tolerance,
             "passed": r.passed, "seed": seed, "units": "bits",
             "version": __version__}
            for r in results]
    doc = {"seed": seed, "trials": trials,
           "passed": all(r.passed for r in results), "properties": rows,
           "units": "bits", "version": __version__}
    _emit(doc, rows, output)
    if not doc["passed"]:
        sys.exit(5)


if __name__ == "__main__":
    main()
