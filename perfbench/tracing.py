"""Per-layer tracing of the ostrocube package from outside it.

`Tracer.install()` replaces each layer's public functions in the namespaces
of the modules that call them (`from .quadrature import integrate_1d`
binds a name in the caller, so that binding is the one to replace). Each
wrapped call records a span: name, start, end, parent span and operation.
Spans stay in memory and are written out by `save()` at the end. A span's
self time is its duration minus the time its child spans cover; the tracer
keeps it per name as spans close.

Functions that `to_bivariate` / `to_univariate` build are wrapped too, so
every call into an expression's `fn`, `mixed_fn` or `deriv_fn` is an
`expr.eval` span that also counts the points it evaluates.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from time import perf_counter

import numpy as np

# span name -> (module, attribute) bindings to replace
_SPANS = {
    "expr.parse_expression": [("cli", "parse_expression")],
    "expr.differentiate": [("cli", "differentiate"), ("expr", "differentiate")],
    "expr.to_string": [("cli", "to_string"), ("expr", "to_string")],
    "expr.to_bivariate": [("cli", "to_bivariate")],
    "expr.to_univariate": [("cli", "to_univariate")],
    "quadrature.integrate_1d": [("enclosure", "integrate_1d"), ("identity", "integrate_1d"),
                                ("rules", "integrate_1d")],
    "quadrature.integrate_2d": [("identity", "integrate_2d"), ("rules", "integrate_2d")],
    "quadrature.estimate_bounds": [("cli", "estimate_bounds"), ("enclosure", "estimate_bounds")],
    "rules.functional": [
        ("cli", "ostrowski_1d"), ("cli", "cheng_1d"),
        *[(mod, name) for mod in ("cli", "enclosure")
          for name in ("sarikaya_functional", "qiaoling_functional",
                       "quarter_rule_functional")],
    ],
    "identity.full_expansion_derived": [("cli", "full_expansion_derived"),
                                        ("enclosure", "full_expansion_derived"),
                                        ("identity", "full_expansion_derived")],
    "identity.identity_report": [("cli", "identity_report")],
    "enclosure.composite_enclosure": [("cli", "composite_enclosure")],
    "enclosure.single_cell_enclosure": [("cli", "single_cell_enclosure")],
    "enclosure.compare_bounds": [("cli", "compare_bounds")],
}
# recursive functions: only the outermost call is a span
_REENTRANT = {"expr.to_string"}
# sampling entry points whose array sizes make up `quadrature.samples`
_SAMPLERS = [("quadrature", "sample_univariate"), ("quadrature", "sample_bivariate"),
             ("quadrature", "sample_mixed"), ("identity", "sample_mixed"),
             ("cli", "sample_univariate")]

# metric -> (span name, field); fields are per-operation means
PER_LAYER = (
    ("quadrature.integrate_1d.calls", "calls", "quadrature.integrate_1d"),
    ("quadrature.integrate_1d.self_ms", "self_ms", "quadrature.integrate_1d"),
    ("quadrature.integrate_2d.calls", "calls", "quadrature.integrate_2d"),
    ("quadrature.integrate_2d.self_ms", "self_ms", "quadrature.integrate_2d"),
    ("quadrature.estimate_bounds.calls", "calls", "quadrature.estimate_bounds"),
    ("quadrature.estimate_bounds.self_ms", "self_ms", "quadrature.estimate_bounds"),
    ("expr.eval.calls", "calls", "expr.eval"),
    ("expr.eval.self_ms", "self_ms", "expr.eval"),
    ("expr.parse_expression.calls", "calls", "expr.parse_expression"),
    ("expr.parse_expression.self_ms", "self_ms", "expr.parse_expression"),
    ("expr.differentiate.calls", "calls", "expr.differentiate"),
    ("expr.differentiate.self_ms", "self_ms", "expr.differentiate"),
    ("expr.to_string.calls", "calls", "expr.to_string"),
    ("expr.to_string.self_ms", "self_ms", "expr.to_string"),
    ("rules.functional.calls", "calls", "rules.functional"),
    ("rules.functional.self_ms", "self_ms", "rules.functional"),
    ("identity.full_expansion_derived.calls", "calls", "identity.full_expansion_derived"),
    ("identity.full_expansion_derived.self_ms", "self_ms", "identity.full_expansion_derived"),
    ("identity.identity_report.self_ms", "self_ms", "identity.identity_report"),
    ("enclosure.composite_enclosure.self_ms", "self_ms", "enclosure.composite_enclosure"),
    ("enclosure.compare_bounds.self_ms", "self_ms", "enclosure.compare_bounds"),
    ("cli.parse_args.self_ms", "self_ms", "cli.parse_args"),
    ("cli.run.self_ms", "self_ms", "cli.run"),
)


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name id, child time]
        self._sampling = 0  # depth of nested sampler calls
        self.reset()

    def reset(self) -> None:
        """Drop every span and count, e.g. after an untimed warm-up."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.calls: dict[int, int] = {}
        self.self_s: dict[int, float] = {}
        self.samples = 0
        self.eval_points = 0
        self.line_calls = 0
        self.line_distinct = 0
        self.parse_calls = 0
        self.parse_distinct = 0
        self._line_keys: set = set()
        self._parse_texts: set = set()
        self.ops = 0

    def name_id(self, name: str) -> int:
        """Integer id of a span name, as stored in the span arrays."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # -- spans ---------------------------------------------------------------

    def begin(self, name_id: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self._stack.append([idx, name_id, 0.0])

    def end(self) -> None:
        t1 = perf_counter()
        idx, name_id, child = self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name_id] = self.calls.get(name_id, 0) + 1
        self.self_s[name_id] = self.self_s.get(name_id, 0.0) + dur - child

    def wrap(self, name: str, fn, on_call=None):
        name_id = self.name_id(name)
        reentrant = name in _REENTRANT

        def traced(*args, **kwargs):
            if reentrant and self._stack and self._stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            self.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def start_op(self) -> None:
        self.op += 1
        self.ops += 1
        self._line_keys.clear()
        self._parse_texts.clear()

    def end_op(self) -> None:
        self.line_distinct += len(self._line_keys)
        self.parse_distinct += len(self._parse_texts)

    # -- counters ------------------------------------------------------------

    def _on_line(self, g, iv, q, breakpoints=()):
        self.line_calls += 1
        self._line_keys.add((g.label, iv.lo, iv.hi, q, tuple(breakpoints)))

    def _on_parse(self, text):
        self.parse_calls += 1
        self._parse_texts.add(text)

    def _count_samples(self, fn):
        """Count the values passed to a sampler; a sampler called from
        another (the finite-difference stencil) is not counted twice."""

        def counted(*args, **kwargs):
            if self._sampling == 0:
                self.samples += int(np.size(args[1]))
            self._sampling += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._sampling -= 1

        return counted

    def _eval_fn(self, fn):
        if fn is None:
            return None
        name_id = self.name_id("expr.eval")

        def evaluated(*args):
            self.eval_points += max(np.size(args[0]), np.size(args[-1]))
            self.begin(name_id)
            try:
                return fn(*args)
            finally:
                self.end()

        return evaluated

    def _wrap_factory(self, name: str, fn, fields):
        def build(*args, **kwargs):
            made = fn(*args, **kwargs)
            return dataclasses.replace(
                made, **{f: self._eval_fn(getattr(made, f)) for f in fields}
            )

        return self.wrap(name, build)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Replace the bindings listed above in the package's modules."""
        mods = {name: getattr(package, name)
                for name in ("cli", "expr", "quadrature", "enclosure", "identity", "rules")}
        shared: dict[object, object] = {}
        hooks = {"quadrature.integrate_1d": self._on_line,
                 "expr.parse_expression": self._on_parse}
        factories = {"expr.to_bivariate": ("fn", "mixed_fn"),
                    "expr.to_univariate": ("fn", "deriv_fn")}
        for span, bindings in _SPANS.items():
            for mod, attr in bindings:
                original = getattr(mods[mod], attr)
                if original not in shared:
                    if span in factories:
                        shared[original] = self._wrap_factory(span, original, factories[span])
                    else:
                        shared[original] = self.wrap(span, original, hooks.get(span))
                setattr(mods[mod], attr, shared[original])
        samplers: dict[str, object] = {}
        for mod, attr in _SAMPLERS:
            if attr not in samplers:
                samplers[attr] = self._count_samples(getattr(mods["quadrature"], attr))
            setattr(mods[mod], attr, samplers[attr])

    # -- results -------------------------------------------------------------

    def per_op(self, name: str, field: str) -> float:
        name_id = self._name_ids.get(name)
        ops = max(self.ops, 1)
        if name_id is None:
            return 0.0
        if field == "calls":
            return self.calls.get(name_id, 0) / ops
        return 1000.0 * self.self_s.get(name_id, 0.0) / ops

    def metrics(self) -> dict:
        out = {key: self.per_op(name, field) for key, field, name in PER_LAYER}
        ops = max(self.ops, 1)
        out["quadrature.integrate_1d.distinct_ratio"] = (
            self.line_distinct / self.line_calls if self.line_calls else 0.0)
        out["expr.parse_expression.distinct_ratio"] = (
            self.parse_distinct / self.parse_calls if self.parse_calls else 0.0)
        out["quadrature.samples"] = self.samples / ops
        out["expr.eval.points"] = self.eval_points / ops
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self._names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
