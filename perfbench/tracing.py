"""Spans around calls into corrweave's layers, recorded from outside.

``Tracer.install`` replaces public functions with timing wrappers under the
names their callers look up (``corrweave.cli.profile``,
``corrweave.correlations.marginal_entropy``, ...); ``uninstall`` puts the
originals back.  Each wrapper appends one span ``[name, op, parent, start,
end, attr]`` to an in-memory list; spans of one op share its id.  Layer
metrics are derived from the spans once the run is over.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from time import perf_counter

NAME, OP, PARENT, START, END, ATTR = range(6)

#: (module, attribute, span name) of every plain function that is wrapped.
FUNCTIONS = (
    ("corrweave.cli", "load_state_file", "cli.load_state_file"),
    ("corrweave.cli", "profile", "correlations.profile"),
    ("corrweave.cli", "neural_complexity", "correlations.neural"),
    ("corrweave.cli", "weaving", "correlations.weaving"),
    ("corrweave.cli", "cf_dist", "closed_forms.cf_dist"),
    ("corrweave.cli", "cf_genuine", "closed_forms.cf_genuine"),
    ("corrweave.cli", "cf_weaving", "closed_forms.cf_weaving"),
    ("corrweave.cli", "cf_scaling_sweep", "closed_forms.cf_scaling_sweep"),
    ("corrweave.cli", "make_bell_product", "states.build"),
    ("corrweave.cli", "make_classical", "states.build"),
    ("corrweave.cli", "make_classical_pair_product", "states.build"),
    ("corrweave.cli", "make_dicke", "states.build"),
    ("corrweave.cli", "make_ghz", "states.build"),
    ("corrweave.correlations", "marginal_entropy", "tensor.entropy"),
    ("corrweave.correlations", "is_permutation_invariant", "tensor.perm_check"),
    ("corrweave.closed_forms", "cf_dist", "closed_forms.cf_dist"),
    ("corrweave.closed_forms", "dicke_marginal_entropy", "closed_forms.block_entropy"),
)
#: (module, class, method, span name, is classmethod) of wrapped methods.
METHODS = (
    ("corrweave.states", "StateFamily", "build", "states.build", False),
    ("corrweave.tensor", "DensityState", "from_matrix", "tensor.construct", True),
    ("corrweave.tensor", "DensityState", "from_amplitudes", "tensor.construct", True),
    ("corrweave.tensor", "DensityState", "from_probabilities", "tensor.construct", True),
)


def _entropy_attr(state, keep, *args, **kwargs):
    return state.rep, math.prod(state.dims[i] for i in keep)


#: Extra data recorded on a span, from the call's arguments or its result.
ARG_ATTRS = {"tensor.entropy": _entropy_attr}
RESULT_ATTRS = {"correlations.profile": lambda prof: prof.mode}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self._saved: list[tuple] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        arg_attr, result_attr = ARG_ATTRS.get(name), RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0,
                    arg_attr(*args, **kwargs) if arg_attr else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if result_attr:
                span[ATTR] = result_attr(out)
            return out

        return wrapper

    def _count_partitions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for part in fn(*args, **kwargs):
                self.counters["partitions.enumerated"] = (
                    self.counters.get("partitions.enumerated", 0) + 1)
                yield part

        return wrapper

    def install(self) -> None:
        import importlib

        def patch(owner, attr, value):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for module, attr, name in FUNCTIONS:
            mod = importlib.import_module(module)
            patch(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, cls_name, attr, name, is_classmethod in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[attr]
            if is_classmethod:
                patch(cls, attr, classmethod(self.wrap(name, fn.__func__)))
            else:
                patch(cls, attr, self.wrap(name, fn))
        corr = importlib.import_module("corrweave.correlations")
        patch(corr, "enumerate_partitions", self._count_partitions(corr.enumerate_partitions))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def op_span(self, run_op):
        """``run_op`` wrapped as the root span of one op, ``cli.op``."""
        traced = self.wrap("cli.op", run_op)

        def call(*args):
            self.op += 1
            return traced(*args)

        return call

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end", "attr"],
                       "spans": self.spans, "counters": self.counters}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread with stack discipline, so children are
    disjoint and nested inside their parent: their durations add up to the
    part of the parent they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans: list[list], i: int) -> bool:
    """Whether no ancestor of span ``i`` has its name (no double counting)."""
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return False
        p = spans[p][PARENT]
    return True


def layer_totals(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer times, counts and maxima summed over all spans."""
    selfs = self_times(spans)
    out = dict.fromkeys(
        ("partitions.enumerated", "correlations.minimize_self_s",
         "tensor.entropy_s", "tensor.entropy_calls", "tensor.entropy_max_dim",
         "tensor.perm_check_s", "cli.load_state_file_s", "tensor.construct_s",
         "states.build_s", "correlations.neural_s", "correlations.neural_self_s",
         "correlations.weaving_s", "correlations.route.brute",
         "correlations.route.symmetric-fast", "closed_forms.cf_dist_calls",
         "closed_forms.block_entropy_calls", "closed_forms.block_entropy_s",
         "closed_forms.self_s", "cli.self_s", "op_s"), 0)
    for rep in ("pure", "dense", "classical"):
        out[f"tensor.entropy_s.{rep}"] = 0.0
        out[f"tensor.entropy_calls.{rep}"] = 0
    inclusive = {"tensor.perm_check": "tensor.perm_check_s",
                 "cli.load_state_file": "cli.load_state_file_s",
                 "tensor.construct": "tensor.construct_s",
                 "states.build": "states.build_s",
                 "correlations.neural": "correlations.neural_s",
                 "correlations.weaving": "correlations.weaving_s",
                 "closed_forms.block_entropy": "closed_forms.block_entropy_s",
                 "cli.op": "op_s"}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if name in inclusive and _outermost(spans, i):
            out[inclusive[name]] += dur
        if name == "tensor.entropy":
            rep, dim = s[ATTR]
            out["tensor.entropy_s"] += dur
            out["tensor.entropy_calls"] += 1
            out[f"tensor.entropy_s.{rep}"] += dur
            out[f"tensor.entropy_calls.{rep}"] += 1
            if rep != "classical":  # sparse tables have no dense dimension
                out["tensor.entropy_max_dim"] = max(out["tensor.entropy_max_dim"], dim)
        elif name == "correlations.profile":
            out["correlations.minimize_self_s"] += selfs[i]
            out[f"correlations.route.{s[ATTR]}"] += 1
        elif name == "correlations.neural":
            out["correlations.neural_self_s"] += selfs[i]
        elif name == "cli.op":
            out["cli.self_s"] += selfs[i]
        elif name == "closed_forms.block_entropy":
            out["closed_forms.block_entropy_calls"] += 1
        elif name.startswith("closed_forms."):
            out["closed_forms.self_s"] += selfs[i]
            if name == "closed_forms.cf_dist":
                out["closed_forms.cf_dist_calls"] += 1
    out.update(counters)
    return out
