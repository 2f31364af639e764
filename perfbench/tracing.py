"""Layer tracing for the traced benchmark run.

Spans are recorded around ldckit's public functions, from the outside: each
function is replaced by a timing wrapper in every ldckit module that binds
it, so every caller (the CLI, the suites, the benchmark itself) reaches the
wrapper.  Nothing here is installed in an untraced run.

A span has a name, a start, an end and a parent.  Spans are kept in memory
and written out once, when the run ends.  A span's self time is its
duration minus the time covered by its child spans; the self times of one
operation's spans add up to the operation's latency.
"""
from __future__ import annotations

import json
import re
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Per-layer metrics: name -> (unit, how it is computed from the spans).
# "self:<span>" sums self time, "count:<counter>" reads a counter.
LAYER_METRICS = {
    "circuit.construct_s": ("s", "self:circuit.construct"),
    "circuit.compose_s": ("s", "self:circuit.compose"),
    "circuit.constructed": ("count", "count:circuit.constructed"),
    "circuit.nodes_checked": ("count", "count:circuit.nodes_checked"),
    "io.parse_s": ("s", "self:io.parse"),
    "io.serialize_s": ("s", "self:io.serialize"),
    "validity.validate_s": ("s", "self:validity.validate"),
    "validity.nodes_per_s": ("1/s", "rate:validity.nodes/validity.validate"),
    "rewrite.normalize_s": ("s", "self:rewrite.normalize"),
    "rewrite.redexes": ("count", "count:rewrite.redexes"),
    "rewrite.expand_s": ("s", "self:rewrite.expand"),
    "model.evaluate_s": ("s", "self:model.evaluate"),
    "model.evaluate_calls": ("count", "count:model.evaluate_calls"),
    "model.plan_s": ("s", "self:model.plan"),
    "model.contract_s": ("s", "self:model.contract"),
    "model.flops": ("flop", "count:model.flops"),
    "model.max_intermediate_mb": ("MB", "max:model.max_intermediate_mb"),
    "suites.check_s": ("s", "self:suites.check"),
    "suites.template_s": ("s", "self:suites.template"),
    "suites.env_s": ("s", "self:suites.env"),
    "suites.equations": ("count", "count:suites.equations"),
    "gadget.load_s": ("s", "self:gadget.load"),
    "structures.split_s": ("s", "self:structures.split"),
    "exp.retract_s": ("s", "self:exp.retract"),
    "exp.induce_s": ("s", "self:exp.induce"),
    "exp.monoidal_s": ("s", "self:exp.monoidal"),
    "exp.lift_flat_s": ("s", "self:exp.lift_flat"),
    "exp.comonoid_residual_s": ("s", "self:exp.comonoid_residual"),
    "exp.comonoid_residual_peak_mb": (
        "MB", "max:exp.comonoid_residual_peak_mb"),
    "exp.bang_matrix_s": ("s", "self:exp.bang_matrix"),
    "multiset.basis_s": ("s", "self:multiset.basis"),
    "multiset.orderings": ("count", "count:multiset.orderings"),
    "cli.overhead_s": ("s", "self:cli.main"),
}

# Spans of the benchmark's own making, not of a program layer.
BENCH_SPANS = ("bench.op", "bench.report")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        # Off while the benchmark checks outputs, so that only the program
        # work of set-up and of the timed operations is counted.
        self.enabled = True

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) may update counters."""
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if after is not None:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -------------------------------------------------------

    def self_times(self, roots: set[int] | None = None) -> dict[str, float]:
        """Self time per span name, over all spans or only those whose
        root span is in `roots`."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        keep = None
        if roots is not None:
            root = list(range(len(dur)))
            for i, p in enumerate(self.parents):
                if p >= 0:
                    root[i] = root[p]
            keep = [root[i] in roots for i in range(len(dur))]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if keep is None or keep[i]:
                out[name] += dur[i] - child[i]
        return out

    def metrics(self) -> dict:
        selfs = self.self_times()
        out = {}
        for metric, (unit, rule) in LAYER_METRICS.items():
            kind, key = rule.split(":")
            if kind == "self":
                value = selfs.get(key, 0.0)
            elif kind == "count":
                value = self.counters.get(key, 0.0)
            elif kind == "max":
                value = self.maxima.get(key, 0.0)
            else:  # rate: counter over the self time of a span
                num, den = key.split("/")
                t = selfs.get(den, 0.0)
                value = self.counters.get(num, 0.0) / t if t else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                                 for n, s, e, p in zip(self.names,
                                                       self.starts,
                                                       self.ends,
                                                       self.parents)],
                       "counters": dict(self.counters),
                       "maxima": dict(self.maxima)}, fh)


def _replace(orig, new) -> None:
    """Rebind `orig` to `new` in every ldckit module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "ldckit" or name.startswith("ldckit."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


class _NumpyProxy:
    """Stands in for `np` inside ldckit.model, so that only the model's
    own einsum calls are seen."""

    def __init__(self, einsum):
        self.einsum = einsum

    def __getattr__(self, name):
        return getattr(np, name)


_FLOPS = re.compile(r"Optimized FLOP count:\s*([0-9.e+-]+)")
_LARGEST = re.compile(r"Largest intermediate:\s*([0-9.e+-]+) elements")


def install(tr: Tracer) -> None:
    """Wrap ldckit's public functions in spans.  Call after importing
    ldckit and before any workload input is built."""
    from ldckit import (circuit, cli, exponential, fixtures, gadget, io,
                        model, multiset, rewrite, structures, suites,
                        validity)
    from numpy._core import einsumfunc

    def wrap_fn(module, attr, span, after=None):
        orig = getattr(module, attr)
        _replace(orig, tr.wrap(span, orig, after))

    def wrap_init(cls, span, after):
        cls.__init__ = tr.wrap(span, cls.__init__, after)

    # circuit
    def constructed(args, _):
        tr.count("circuit.constructed")
        tr.count("circuit.nodes_checked", len(args[2]))
    wrap_init(circuit.Circuit, "circuit.construct", constructed)
    wrap_fn(circuit, "compose", "circuit.compose")
    wrap_fn(circuit, "tensor_parallel", "circuit.compose")

    # io
    wrap_fn(io, "parse", "io.parse")
    wrap_fn(io, "serialize", "io.serialize")

    # validity
    wrap_fn(validity, "validate", "validity.validate",
            lambda args, _: tr.count("validity.nodes", len(args[0].nodes)))

    # rewrite: every erased redex removes two nodes
    wrap_fn(rewrite, "normalize", "rewrite.normalize",
            lambda args, out: tr.count(
                "rewrite.redexes", (len(args[0].nodes) - len(out.nodes)) // 2))
    wrap_fn(rewrite, "expand_wire", "rewrite.expand")

    # model: evaluate, and the planning/contraction inside its einsum
    wrap_fn(model, "evaluate", "model.evaluate",
            lambda args, _: tr.count("model.evaluate_calls"))
    model.np = _NumpyProxy(tr.wrap("model.contract", np.einsum))
    orig_path = einsumfunc.einsum_path

    def einsum_path(*operands, **kwargs):
        if not tr.enabled or tr.current() != "model.contract":
            return orig_path(*operands, **kwargs)
        i = tr.begin("model.plan")
        try:
            result = orig_path(*operands, **kwargs)
        finally:
            tr.end(i)
        # einsum asks for the contraction list only; replaying the chosen
        # path gives einsum_path's own report of FLOPs and sizes.
        j = tr.begin("bench.report")
        path = ["einsum_path"] + [list(step[0]) for step in result[1]]
        report = orig_path(*operands, optimize=path)[1]
        tr.end(j)
        tr.count("model.flops", float(_FLOPS.search(report).group(1)))
        tr.peak("model.max_intermediate_mb",
                float(_LARGEST.search(report).group(1)) * 16 / 1e6)
        return result
    einsumfunc.einsum_path = einsum_path

    # suites: the check, its environment, and each equation template
    wrap_fn(suites, "check_suite", "suites.check")
    wrap_fn(suites, "suite_env", "suites.env")

    def template(build):
        return tr.wrap("suites.template", build,
                       lambda args, _: tr.count("suites.equations"))
    for name, suite in list(suites.SUITES.items()):
        suites.SUITES[name] = suites.EquationSuite(
            suite.name, suite.kind, suite.roles,
            tuple(suites.Equation(eq.label, template(eq.build), eq.margin)
                  for eq in suite.equations))

    # gadget loading
    wrap_fn(fixtures, "load_gadget", "gadget.load")
    wrap_fn(gadget, "gadget_from_json", "gadget.load")

    # structures: every public splitting construction
    for attr in ("split_binary_idempotent", "split_linear_monoid",
                 "split_linear_comonoid", "split_linear_bialgebra",
                 "complementary_from_idempotent"):
        wrap_fn(structures, attr, "structures.split")

    # exponential
    wrap_fn(exponential, "retract_idempotent", "exp.retract")
    wrap_fn(exponential, "induce_bang_monoid", "exp.induce")
    wrap_fn(exponential, "monoidal_structure", "exp.monoidal")
    wrap_fn(exponential, "lift_flat", "exp.lift_flat")
    wrap_fn(exponential, "bang_matrix", "exp.bang_matrix")
    orig_res = exponential.comonoid_residual

    def comonoid_residual(*args, **kwargs):
        if not tr.enabled:
            return orig_res(*args, **kwargs)
        i = tr.begin("exp.comonoid_residual")
        tracemalloc.start()
        try:
            return orig_res(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tr.end(i)
            tr.peak("exp.comonoid_residual_peak_mb", peak / 1e6)
    _replace(orig_res, comonoid_residual)

    # multiset
    wrap_init(multiset.MultisetBasis, "multiset.basis", None)
    orig_ord = multiset.distinct_orderings

    def distinct_orderings(m):
        out = orig_ord(m)
        if tr.enabled:
            tr.count("multiset.orderings", len(out))
        return out
    _replace(orig_ord, distinct_orderings)

    # the command line
    wrap_fn(cli, "main", "cli.main")
