"""Per-layer tracing of stepfree from outside the package.

The tracer replaces public callables of the stepfree modules with wrappers
that record one span per call (name, parent, start, end). Every module
attribute bound to the same function object is replaced, so names that
``cli``, ``tuner``, ``restarts`` and ``validation`` re-import are traced too.
Per-step leaf calls made inside ``sgd_run`` (oracle query, projection,
value_fn) and inside ``good_event_margin`` (exact subgradient) get no span of
their own: their calls and time are counters on the enclosing span.

Spans stay in memory until :meth:`Tracer.layer_metrics` aggregates them or
:meth:`Tracer.write_spans` writes them out. A layer's self time is its
span's duration minus its child spans and its leaf counters.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("stepfree", "stepfree.core", "stepfree.tuner", "stepfree.restarts",
           "stepfree.validation", "stepfree.problems", "stepfree.cli")

# layer name -> (defining module, attribute); core.stream covers two callables
LAYERS = {
    "cli.main": [("stepfree.cli", "main")],
    "problems.make_problem": [("stepfree.problems", "make_problem")],
    "restarts.restart_tune": [("stepfree.restarts", "restart_tune")],
    "tuner.tune": [("stepfree.tuner", "tune")],
    "tuner.bisection": [("stepfree.tuner", "root_finding_bisection")],
    "tuner.phi": [("stepfree.tuner", "phi")],
    "validation.check_theorem_bounds": [("stepfree.validation",
                                         "check_theorem_bounds")],
    "validation.union_frequency": [("stepfree.validation",
                                    "good_event_union_frequency")],
    "validation.good_event_margin": [("stepfree.validation",
                                      "good_event_margin")],
    "core.sgd_run": [("stepfree.core", "sgd_run")],
    "core.stream": [("stepfree.core", "derive_stream"),
                    ("stepfree.core", "stream_rng")],
}

# leaf counter -> (layer whose calls carry it, argument name, attribute or
# None when the argument itself is the callable)
LEAVES = {
    "core.oracle": ("core.sgd_run", "oracle", "query"),
    "core.project": ("core.sgd_run", "domain", "project"),
    "core.value_fn": ("core.sgd_run", "value_fn", None),
    "core.exact_subgradient": ("validation.good_event_margin", "oracle",
                               "exact_subgradient"),
}

# span record fields
NAME, PARENT, START, END, LEAF, INFO = range(6)


def warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


class _Proxy:
    """Stands in for an oracle or domain, overriding a few attributes."""

    def __init__(self, inner, **overrides):
        self.__dict__.update(overrides)
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _timed(fn, acc):
    """Wrap a leaf callable; acc is [calls, seconds]."""
    def leaf(*args):
        t0 = perf_counter()
        out = fn(*args)
        acc[1] += perf_counter() - t0
        acc[0] += 1
        return out
    return leaf


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.missing: set = set()  # layers or leaves whose names are gone

    # -- installation ------------------------------------------------------

    def install(self):
        """Put the wrappers in place; the first call builds them."""
        if not self._patches:
            self._patches = self._build()
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original, _ in reversed(self._patches):
            setattr(mod, key, original)

    def _build(self) -> list:
        """(module, attribute, original, wrapper) for every traced name."""
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                warn(f"module {name} not found; its layers report null")
        patches = []
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                mod = sys.modules.get(mod_name)
                original = getattr(mod, attr, None) if mod else None
                if not callable(original):
                    self._lost(layer, f"{mod_name}.{attr} not found")
                    continue
                wrapper = self._wrap(layer, original)
                patches += [(m, key, original, wrapper) for m in modules
                            for key, value in vars(m).items()
                            if value is original]
        return patches

    def _lost(self, name: str, why: str):
        """Report a layer or leaf counter null from now on, warning once."""
        if name not in self.missing:
            warn(f"{why}; {name} reports null")
            self.missing.add(name)

    def _leaf_slots(self, layer, fn):
        """(positional index, argument name, attribute, counter) per leaf."""
        slots = []
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        for leaf, (owner, arg, attr) in LEAVES.items():
            if owner != layer:
                continue
            if arg not in params:
                self._lost(leaf, f"{layer} has no argument {arg!r}")
                continue
            slots.append((params.index(arg), arg, attr, leaf))
        return slots

    def _wrap(self, layer, fn):
        slots = self._leaf_slots(layer, fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # INFO stays {} if the call raises; None means fields were lacking
            rec = [layer, stack[-1] if stack else -1, 0.0, 0.0, None, {}]
            if slots:
                rec[LEAF] = {}
                args = list(args)
                for pos, arg, attr, leaf in slots:
                    acc = rec[LEAF].setdefault(leaf, [0, 0.0])
                    in_args = pos < len(args)
                    obj = args[pos] if in_args else kwargs.get(arg)
                    if obj is None:
                        continue
                    if attr is None:
                        obj = _timed(obj, acc)
                    elif callable(getattr(obj, attr, None)):
                        obj = _Proxy(obj, **{attr: _timed(getattr(obj, attr),
                                                          acc)})
                    else:
                        self._lost(leaf, f"{arg}.{attr} not found")
                        continue
                    if in_args:
                        args[pos] = obj
                    else:
                        kwargs[arg] = obj
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            rec[INFO] = _summarize(layer, out)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in span order (leaf counters excluded)."""
        selfs = [(r[END] - r[START]) - sum(a[1] for a in (r[LEAF] or {}).values())
                 for r in self.spans]
        for r in self.spans:
            if r[PARENT] >= 0:
                selfs[r[PARENT]] -= r[END] - r[START]
        return selfs

    def layer_metrics(self) -> dict:
        """Aggregate the spans into per-layer metrics (values, no units)."""
        m: dict = {}
        selfs = self.self_times()
        for layer in LAYERS:
            m[f"{layer}.calls"] = 0
            m[f"{layer}.self_s"] = 0.0
        for leaf in LEAVES:
            m[f"{leaf}.calls"] = 0
            m[f"{leaf}.self_s"] = 0.0
        steps = record_bytes = 0
        bis_queries = {}  # bisection span -> fresh sgd_run steps under it
        for i, r in enumerate(self.spans):
            name = r[NAME]
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += selfs[i]
            for leaf, (calls, secs) in (r[LEAF] or {}).items():
                m[f"{leaf}.calls"] += calls
                m[f"{leaf}.self_s"] += secs
            if name == "core.sgd_run":
                T = (r[INFO] or {}).get("T", 0)
                steps += T
                record_bytes = max(record_bytes,
                                   (r[INFO] or {}).get("record_bytes", 0))
                parent = r[PARENT]
                if parent >= 0 and self.spans[parent][NAME] == "tuner.bisection":
                    q, n = bis_queries.get(parent, (0, 0))
                    bis_queries[parent] = (q + T, n + 1)
        m["core.sgd_run.steps"] = steps
        m["core.sgd_run.self_us_per_step"] = (
            m["core.sgd_run.self_s"] / steps * 1e6 if steps else 0.0)
        m["core.oracle.us_per_call"] = (
            m["core.oracle.self_s"] / m["core.oracle.calls"] * 1e6
            if m["core.oracle.calls"] else 0.0)
        m["core.sgd_run.record_bytes"] = record_bytes

        evals = fresh = queries = wasted = 0
        tuned = budget = 0
        cases = {"normal": 0, "edge_low_step": 0, "budget_too_small": 0}
        for i, r in enumerate(self.spans):
            info = r[INFO]
            if not info:
                continue
            if r[NAME] == "tuner.bisection":
                q, n = bis_queries.get(i, (0, 0))
                evals += info["evals"]
                fresh += n
                queries += q
                if info["kind"] == "infeasible":
                    wasted += q
            elif r[NAME] == "tuner.tune":
                tuned += info["total_queries"]
                budget += info["budget"]
                if info["case"] in cases:
                    cases[info["case"]] += 1
        m["tuner.evals"] = evals
        m["tuner.cache_hit_ratio"] = (evals - fresh) / evals if evals else 0.0
        m["tuner.wasted_query_ratio"] = wasted / queries if queries else 0.0
        m["tuner.budget_use_ratio"] = tuned / budget if budget else 0.0
        for case, count in cases.items():
            m[f"tuner.case.{case}"] = count

        # counts read from return values are null if a return value lacked them
        lacking = {r[NAME] for r in self.spans
                   if r[NAME] in SUMMARIZED and r[INFO] is None}
        for name in sorted(lacking):
            warn(f"{name} results lack expected fields; its counts report null")
        if "core.sgd_run" in lacking:
            for key in ("steps", "self_us_per_step", "record_bytes"):
                m[f"core.sgd_run.{key}"] = None
        if lacking:
            for key in list(m):
                if key.startswith(("tuner.evals", "tuner.case.")) \
                        or key.startswith("tuner.") and key.endswith("_ratio"):
                    m[key] = None

        for name in self.missing:
            for key in list(m):
                if key.startswith(name + "."):
                    m[key] = None
        return m

    def self_sum(self) -> float:
        """Sum of all self times, leaf counters included."""
        leaves = sum(a[1] for r in self.spans for a in (r[LEAF] or {}).values())
        return sum(self.self_times()) + leaves

    def write_spans(self, path):
        """Write every span as one JSON line: name, parent, start, end, self."""
        selfs = self.self_times()
        with open(path, "w") as f:
            for i, r in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": r[NAME], "parent": r[PARENT],
                    "start": r[START], "end": r[END], "self_s": selfs[i],
                    "leaf": r[LEAF]}) + "\n")


SUMMARIZED = ("core.sgd_run", "tuner.bisection", "tuner.tune")


def _summarize(layer, out):
    """Counts read from a traced call's return value; None if it lacks them."""
    try:
        if layer == "core.sgd_run":
            T = int(out.T)
            full = getattr(out, "xs", None) is not None
            return {"T": T,
                    "record_bytes": (2 * T + 1) * len(out.x0) * 8 if full else 0}
        if layer == "tuner.bisection":
            return {"kind": out.kind, "evals": len(out.evaluations)}
        if layer == "tuner.tune":
            return {"case": out.case, "total_queries": int(out.total_queries),
                    "budget": int(out.budget)}
    except (AttributeError, TypeError):
        return None
    return {}
