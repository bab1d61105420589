"""Correctness gate: every op's output is checked against a reference.

An op's ``check`` entry (see ``workloads.build``) names its references:

* ``agree``: every ``table`` row carries ``agree: true``;
* ``ref``: the report matches a reference recorded at the commit that
  defined the benchmark (``refs/``, written by ``make_refs.py``) to within
  1e-9 bits (relative above 1), with identical ``argmin`` partitions.
  Seeded random states without a recorded reference are checked against
  an independent oracle: the benchmark's own entropies and canonical
  partition enumeration, with the program's tie-break;
* ``cf``: ``dist`` matches the program's closed form ``cf_dist`` to 1e-8;
* ``depolarized``: ``dist`` and ``argmin`` match the analytic profile of
  the depolarized GHZ state.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"
REF_TOL = 1e-9
CF_TOL = 1e-8
#: Report fields that legitimately differ between runs or releases.
IGNORED_KEYS = frozenset({"file", "version"})
#: Fields kept from a profile report when it is recorded as a reference.
PROFILE_FIELDS = ("dist", "genuine", "total", "weaving", "neural_complexity",
                  "argmin", "mode")
#: Spectrum entries below this contribute nothing (as in the program).
EIG_CLIP = 1e-12
#: Tie tolerance of the program's canonical first-minimizer rule.
TIE_TOL = 1e-15


def compare(expected, actual, tol: float = REF_TOL, path: str = "") -> Optional[str]:
    """First difference between ``expected`` and ``actual``, or None.

    Numbers may differ by ``tol * max(1, |expected|)``; every other value,
    list length and key of ``expected`` must match exactly.  Keys absent
    from ``expected`` are not compared.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path or 'report'}: expected an object"
        for key, value in expected.items():
            if key in IGNORED_KEYS:
                continue
            if key not in actual:
                return f"{path}.{key}: missing"
            diff = compare(value, actual[key], tol, f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = compare(e, a, tol, f"{path}[{i}]")
            if diff:
                return diff
        return None
    numeric = (int, float)
    if (isinstance(expected, numeric) and not isinstance(expected, bool)
            and isinstance(actual, numeric) and not isinstance(actual, bool)):
        if abs(actual - expected) <= tol * max(1.0, abs(expected)):
            return None
        return f"{path}: {actual!r} differs from {expected!r}"
    if expected != actual:
        return f"{path}: {actual!r} != {expected!r}"
    return None


def profile_fields(report: dict) -> dict:
    return {key: report[key] for key in PROFILE_FIELDS}


# -- oracle ----------------------------------------------------------------


def _shannon(p: np.ndarray) -> float:
    p = p[p > EIG_CLIP]
    return float(max(-(p * np.log2(p)).sum(), 0.0)) if p.size else 0.0


def subset_entropies(doc: dict) -> list[float]:
    """Entropy (bits) of the marginal on every subset mask of a state file."""
    dims = doc["dims"]
    n = len(dims)
    kind = doc["kind"]
    if kind == "pure":
        psi = np.array([complex(re, im) for re, im in doc["payload"]]).reshape(dims)
    elif kind == "mixed":
        rho = np.array([[complex(re, im) for re, im in row] for row in doc["payload"]])
        rho = rho.reshape(dims * 2)
    else:
        prob = np.zeros(dims)
        for digits, p in doc["payload"].items():
            prob[tuple(int(c) for c in digits)] = p
    out = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        keep = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        dk = math.prod(dims[i] for i in keep)
        if kind == "pure":
            if not rest:
                continue
            a = np.transpose(psi, keep + rest).reshape(dk, -1)
            s = np.linalg.svd(a, compute_uv=False)
            out[mask] = _shannon(s * s)
        elif kind == "mixed":
            letters = "abcdefghijklmnopqrstuvwxyz"
            rows = letters[:n]
            cols = "".join(rows[i] if i in rest else letters[n + i] for i in range(n))
            kept = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
            marg = np.einsum(f"{rows}{cols}->{kept}", rho).reshape(dk, dk)
            out[mask] = _shannon(np.linalg.eigvalsh((marg + marg.conj().T) / 2))
        else:
            out[mask] = _shannon(prob.sum(axis=tuple(rest)).reshape(-1))
    return out


def canonical_partitions(n: int, kmax: int):
    """Partitions of 0..n-1 with blocks of at most ``kmax``, in the
    program's canonical order (restricted-growth strings, depth first)."""
    blocks: list[list[int]] = []

    def rec(i):
        if i == n:
            yield blocks
            return
        for b in blocks:
            if len(b) < kmax:
                b.append(i)
                yield from rec(i + 1)
                b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(0)


def oracle_profile(doc: dict) -> dict:
    """``dist`` and ``argmin`` of a state file by exhaustive search, with
    ties resolved to the first minimizer in canonical order."""
    n = len(doc["dims"])
    h = subset_entropies(doc)
    s_full = h[(1 << n) - 1]
    dist, argmin = [], []
    for k in range(1, n + 1):
        best, best_part = math.inf, None
        for part in canonical_partitions(n, k):
            value = sum(h[sum(1 << i for i in b)] for b in part) - s_full
            if value < best - TIE_TOL:
                best, best_part = value, [list(b) for b in part]
        dist.append(max(best, 0.0))
        argmin.append(best_part)
    return {"dist": dist, "argmin": argmin}


def depolarized_ghz_profile(n: int, p: float) -> dict:
    """Analytic profile of ``(1-p)|GHZ><GHZ| + p I/2^n``.

    Every k-site marginal (k < n) has eigenvalues ``(1-p)/2 + p/2^k``
    (twice) and ``p/2^k``; the full state has ``1 - p + p/2^n`` once and
    ``p/2^n``.  The state is permutation invariant, so the compact
    partition is optimal.
    """
    def entropy(k):
        if k == n:
            spectrum = [1 - p + p / 2 ** n] + [p / 2 ** n] * (2 ** n - 1)
        else:
            spectrum = [(1 - p) / 2 + p / 2 ** k] * 2 + [p / 2 ** k] * (2 ** k - 2)
        return _shannon(np.array(spectrum))

    dist, argmin = [], []
    for k in range(1, n + 1):
        q, r = divmod(n, k)
        dist.append(max(q * entropy(k) + (entropy(r) if r else 0.0) - entropy(n), 0.0))
        argmin.append([list(range(s, min(s + k, n))) for s in range(0, n, k)])
    return {"dist": dist, "argmin": argmin}


# -- references -------------------------------------------------------------


def load_recorded(refs_dir: Path = REFS_DIR) -> tuple[dict, dict]:
    """Seed-independent references and per-seed references of random states."""
    fixed = json.loads((refs_dir / "fixed.json").read_text(encoding="utf-8"))
    seeded = json.loads((refs_dir / "seeded.json").read_text(encoding="utf-8"))
    return fixed, seeded


def expectations(ops: list[dict], seed: int, inputs: Path,
                 refs_dir: Path = REFS_DIR) -> tuple[dict, int]:
    """Expected output of every op that needs one, computed before any op
    is timed; also the number of seeded references the oracle supplied."""
    from corrweave.closed_forms import ClosedFormFamily, cf_dist

    fixed, seeded = load_recorded(refs_dir)
    recorded = seeded.get(str(seed), {})
    expected: dict = {}
    from_oracle = 0
    for op in ops:
        check, name = op["check"], op["name"]
        if "ref" in check and check.get("seeded"):
            if check["ref"] in recorded:
                expected[name] = recorded[check["ref"]]
            else:
                doc = json.loads((inputs / f"{check['ref']}.json").read_text(encoding="utf-8"))
                expected[name] = oracle_profile(doc)
                from_oracle += 1
        elif "ref" in check:
            expected[name] = fixed[check["ref"]]
        elif "cf" in check:
            family, n, a = check["cf"]
            fam = ClosedFormFamily(family, n, a=a)
            expected[name] = {"dist": [cf_dist(fam, k) for k in range(1, n + 1)]}
        elif "depolarized" in check:
            expected[name] = depolarized_ghz_profile(*check["depolarized"])
    return expected, from_oracle


def check(op: dict, code: int, text: str, expected: dict) -> Optional[str]:
    """Why the op failed, or None when its output is correct."""
    if code != 0:
        return f"exit status {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if op["check"].get("agree") and not all(row.get("agree") is True for row in report):
        return "a table row does not agree with the matrix pipeline"
    if op["name"] in expected:
        tol = CF_TOL if "cf" in op["check"] else REF_TOL
        return compare(expected[op["name"]], report, tol)
    return None
