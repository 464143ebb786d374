"""Spans around homsol's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of the homsol modules by a
wrapper in every namespace that binds it (so `derivation_algebra` is
traced whether it is reached through `tensor`, `soliton` or `strata`),
plus the methods named in METHODS; the three `extend` transformations
share the span name `constructions.transform`.  Each call appends one span
[name, start, end, parent, op, attribute] to an in-memory list; the list
is written out only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("tensor", "decomposition", "soliton", "strata", "constructions", "io", "cli", "catalog")

# (module, class, attribute, span name)
METHODS = (
    ("tensor", "AlgebraTensor", "from_dense", "tensor.from_dense"),
    ("tensor", "AlgebraTensor", "map_basis", "tensor.map_basis"),
    ("decomposition", "MetricDecomposition", "__init__", "decomposition.init"),
    ("decomposition", "MetricDecomposition", "ricci", "decomposition.ricci"),
    ("io", "Report", "dumps", "io.report_dumps"),
)

TRANSFORMS = (
    "constructions.einstein_from_nonunimodular",
    "constructions.restrict_to_unimodular_kernel",
    "constructions.einstein_extension_unimodular",
)
TRANSFORM_SPAN = "constructions.transform"


def _bracket_key(args, kwargs, out):
    mu = args[0] if args else kwargs["mu"]
    return hash(mu.dense.tobytes())


# span name -> function of (args, kwargs, result) giving the span's attribute
ATTRIBUTES = {
    "tensor.derivation_algebra": _bracket_key,
    "strata.stratum_label": _bracket_key,
    "strata.min_norm_point": lambda a, k, out: out.iterations,
    "soliton.soliton_fit": lambda a, k, out: out.tag,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1  # index of the operation the next spans belong to

    def wrap(self, name: str, fn):
        spans, stack, attr = self.spans, self._stack, ATTRIBUTES.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attr is not None:
                rec[5] = attr(args, kwargs, out)
            return out

        return traced

    def install(self, package):
        """Wrap homsol's public functions everywhere they are bound."""
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        namespaces = list(mods.values()) + [package]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(TRANSFORM_SPAN if name in TRANSFORMS else name, fn)
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        setattr(ns, attr, traced)
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(span, raw))

    def dump(self, path: str):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of each span: its duration minus its direct children's."""
    child = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [(rec[2] - rec[1]) - child[idx] for idx, rec in enumerate(spans)]


def layer_metrics(spans: list[list], names, n_ops: int) -> dict[str, float]:
    """Per-operation figures from the spans whose op index is >= 0.

    A name `<span>.self_ms`, `<span>.calls`, `<span>.distinct_ratio`
    (distinct brackets per operation / calls) or `<span>.iterations` is
    derived from the spans called `<span>`; `soliton.fallback_success_ratio`
    is fallbacks whose `soliton_fit` ends in a soliton tag / fallbacks run.
    Names of other forms are left to the caller.
    """
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    distinct = defaultdict(set)
    attr_sum = defaultdict(float)
    fallbacks = fallback_hits = 0
    for idx, (name, _, _, parent, op, attr) in enumerate(spans):
        if op < 0:
            continue
        self_s[name] += own[idx]
        calls[name] += 1
        if ATTRIBUTES.get(name) is _bracket_key:
            distinct[name].add((op, attr))
        elif name == "strata.min_norm_point":
            attr_sum[name] += attr
        elif name == "soliton.constrained_derivations":
            fallbacks += 1
            up = parent
            while up >= 0 and spans[up][0] != "soliton.soliton_fit":
                up = spans[up][3]
            if up >= 0 and spans[up][5] not in (None, "NotDetected"):
                fallback_hits += 1

    per_op = 1.0 / max(1, n_ops)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "self_ms": lambda span: 1000.0 * self_s[span] * per_op,
        "calls": lambda span: calls[span] * per_op,
        "distinct_ratio": lambda span: ratio(len(distinct[span]), calls[span]),
        "iterations": lambda span: attr_sum[span] * per_op,
    }
    out = {"soliton.fallback_success_ratio": ratio(fallback_hits, fallbacks)}
    for metric in names:
        span, _, kind = metric.rpartition(".")
        if kind in derived:
            out[metric] = derived[kind](span)
    return out


def self_ms_per_call(spans: list[list], name: str, op: int) -> list[float]:
    """Self time in ms of each span called `name` that belongs to operation `op`."""
    own = self_times(spans)
    return [1000.0 * own[idx] for idx, rec in enumerate(spans) if rec[0] == name and rec[4] == op]
