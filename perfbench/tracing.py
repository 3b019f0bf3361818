"""Per-layer tracing from outside the program.

The tracer swaps pushsim's public functions for timing wrappers while it is
installed and puts the originals back when it is removed; nothing under
``src/`` is edited. Wrappers pass arguments and results through untouched,
so traced outputs are bit-identical to untraced ones (the benchmark checks
this by digest).

Three places need care:

- ``engine`` imports ``realize_chunk`` by name, so both
  ``pushsim.faultnet.realize_chunk`` and ``pushsim.engine.realize_chunk``
  are patched; likewise ``harness`` imports ``run_gradient_push``,
  ``solve_reference_optimum`` and ``stream`` by name.
- ``optimizer.run_gradient_push`` calls ``_engine.run_protocol``, which
  resolves through the module, so patching ``pushsim.engine.run_protocol``
  covers it and ``audit.verify_run``'s call-time import.
- Philox uniforms, gradient noise included, come from generators that
  ``rng.stream`` returns, so ``stream`` is patched to hand out generators
  whose ``random`` is timed.

Spans (name, start, end, parent, op) are kept in memory and written out by
the caller. Per-call work counts are attached to spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

import numpy as np

from pushsim import (audit, engine, faultnet, harness, objectives,
                     optimizer, rng)

LAYERS = ("rng", "faultnet", "objectives", "optimizer", "engine", "harness",
          "audit")
GRADIENT_SPANS = ("objectives.batch_local_gradients",
                  "objectives.batch_total_gradient")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int       # index into Tracer.spans, -1 for a root span
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TimedGenerator:
    """A numpy Generator whose ``random`` draws are recorded as rng spans."""

    def __init__(self, gen: np.random.Generator, tracer: "Tracer"):
        self._gen = gen
        self._random = tracer.wrap("rng.random", gen.random,
                                   lambda args, kw, out: {"uniforms":
                                                          np.size(out)})

    def random(self, *args, **kwargs):
        return self._random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _realize_counts(args, kwargs, out) -> dict:
    wake, arrival = out
    return {"run_slots": wake.shape[0] * wake.shape[1],
            "node_slots": wake.size,
            "woken": int(np.count_nonzero(wake)),
            "attempted": int(np.count_nonzero(arrival != faultnet.NOT_SENT)),
            "lost": int(np.count_nonzero(arrival == faultnet.LOST))}


def _local_grad_counts(args, kwargs, out) -> dict:
    return {"node_grads": int(np.prod(out.shape[:-1]))}


def _total_grad_counts(args, kwargs, out) -> dict:
    objective = args[0]
    return {"node_grads": int(np.prod(out.shape[:-1])) * objective.n_agents}


_RUN_PROTOCOL_SIG = inspect.signature(engine.run_protocol)


def _engine_counts(args, kwargs, out) -> dict:
    bound = _RUN_PROTOCOL_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"run_slots": len(bound.arguments["runs"])
            * bound.arguments["horizon"]}


def _matrix_counts(args, kwargs, out) -> dict:
    return {"nnz": int(out.nnz)}


def _cross_validate_counts(args, kwargs, out) -> dict:
    return {"identities_failed": sum(c.first_bad_slot is not None
                                     for c in out.checks)}


class Tracer:
    """Records spans around pushsim's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict] = {}   # span index -> work counts
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._patches = self._build_patches()

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, kwargs, result) -> work counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent,
                                           tracer.op)
            if count is not None:
                tracer.counts[index] = count(args, kwargs, out)
            return out
        return wrapper

    def _build_patches(self) -> list[tuple[tuple, str, object]]:
        """(owners, attribute, wrapper): one wrapper set on every owner."""
        tracer = self
        orig_stream = rng.stream

        def timed_stream(*args, **kwargs):
            return _TimedGenerator(orig_stream(*args, **kwargs), tracer)

        def method(cls, attr, name, count=None):
            return ((cls,), attr, self.wrap(name, cls.__dict__[attr], count))

        def func(owners, module, attr, count=None):
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            return (owners, attr, self.wrap(name, getattr(module, attr),
                                            count))

        patches = [((rng, harness), "stream", timed_stream),
                   func((faultnet, engine), faultnet, "realize_chunk",
                        _realize_counts),
                   func((faultnet,), faultnet, "realize_schedule"),
                   func((engine,), engine, "run_protocol", _engine_counts),
                   func((optimizer, harness), optimizer, "run_gradient_push"),
                   method(optimizer.StepSizeLedger, "compensated_step_batch",
                          "optimizer.compensated_step_batch"),
                   func((objectives, harness), objectives,
                        "solve_reference_optimum"),
                   method(objectives.NoiseModel, "from_uniforms",
                          "objectives.from_uniforms")]
        for cls in (objectives.QuadraticObjective, objectives.SvmObjective):
            patches.append(method(cls, "batch_local_gradients",
                                  GRADIENT_SPANS[0], _local_grad_counts))
            patches.append(method(cls, "batch_total_gradient",
                                  GRADIENT_SPANS[1], _total_grad_counts))
        for attr in ("build_problem", "centralized_baseline",
                     "reduce_metrics", "run_experiment"):
            patches.append(func((harness,), harness, attr))
        patches += [func((audit,), audit, "build_delivery_indicators"),
                    func((audit,), audit, "build_mass_matrix",
                         _matrix_counts),
                    func((audit,), audit, "run_linear_audit"),
                    func((audit,), audit, "cross_validate",
                         _cross_validate_counts),
                    func((audit,), audit, "verify_run")]
        return patches

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owners, attr, wrapper in self._patches:
            for owner in owners:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_csv(self, path) -> None:
        """One line per span: op, name, start, end, parent, self time."""
        selfs = self_times(self.spans)
        lines = ["op,name,start_s,end_s,parent,self_s"]
        lines += [f"{s.op},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},"
                  f"{t:.9f}" for s, t in zip(self.spans, selfs)]
        path.write_text("\n".join(lines) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, op_seconds: list[float],
                  bytes_written: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced ops, as name -> (value, unit).

    Times and counts are per op (totals divided by the number of traced
    ops); shares and ratios are over all traced ops. Every ``*_s`` metric
    is a self time (the span minus its traced children) except
    ``engine.run_s``, ``faultnet.schedule_s``, ``objectives.ref_opt_s``,
    ``harness.build_problem_s`` and ``audit.cross_validate_s``, which are
    inclusive. ``rng.draw_s``, ``engine.self_s``, the other
    ``<layer>.self_s`` values and ``trace.unattributed_s`` add up to
    ``trace.op_s``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops = len(op_seconds)
    names = [s.name for s in spans]

    def total(name: str, inclusive: bool = False) -> float:
        return sum(s.duration if inclusive else t
                   for s, t in zip(spans, selfs) if s.name == name)

    def count(key: str, keep=lambda i: True) -> int:
        return sum(c.get(key, 0) for i, c in tracer.counts.items()
                   if keep(i))

    def parent_name(i: int) -> str | None:
        p = spans[i].parent
        return names[p] if p >= 0 else None

    def outer_grad(i: int) -> bool:
        return parent_name(i) not in GRADIENT_SPANS

    layer_self = {layer: sum(t for s, t in zip(spans, selfs)
                             if s.name.startswith(layer + "."))
                  for layer in LAYERS}
    op_s = sum(op_seconds)
    engine_slots = count("run_slots",
                         lambda i: names[i] == "engine.run_protocol")
    engine_woken = count(
        "woken", lambda i: parent_name(i) == "engine.run_protocol")
    engine_grads = count(
        "node_grads", lambda i: parent_name(i) == "engine.run_protocol")
    node_slots = count("node_slots")
    attempted = count("attempted")

    def per_op(v: float) -> float:
        return v / ops

    m = {
        "rng.draw_s": (per_op(total("rng.random")), "s"),
        "rng.uniforms": (per_op(count("uniforms")), "count"),
        "faultnet.realize_s": (per_op(total("faultnet.realize_chunk")), "s"),
        "faultnet.run_slots": (per_op(count("run_slots", lambda i: names[i]
                                            == "faultnet.realize_chunk")),
                               "count"),
        "faultnet.wake_share": (count("woken") / node_slots
                                if node_slots else 0.0, "ratio"),
        "faultnet.lost_share": (count("lost") / attempted
                                if attempted else 0.0, "ratio"),
        "faultnet.schedule_s": (per_op(total("faultnet.realize_schedule",
                                             True)), "s"),
        "objectives.grad_s": (per_op(sum(total(n) for n in GRADIENT_SPANS)),
                              "s"),
        "objectives.grad_calls": (per_op(sum(
            1 for i, n in enumerate(names)
            if n in GRADIENT_SPANS and outer_grad(i))), "count"),
        "objectives.node_grads": (per_op(count("node_grads", outer_grad)),
                                  "count"),
        "objectives.useful_grad_ratio": (engine_woken / engine_grads
                                         if engine_grads else 0.0, "ratio"),
        "objectives.noise_s": (per_op(total("objectives.from_uniforms")),
                               "s"),
        "objectives.ref_opt_s": (per_op(total(
            "objectives.solve_reference_optimum", True)), "s"),
        "optimizer.step_s": (per_op(total(
            "optimizer.compensated_step_batch")), "s"),
        "engine.run_s": (per_op(total("engine.run_protocol", True)), "s"),
        "engine.self_s": (per_op(layer_self["engine"]), "s"),
        "engine.self_us_per_run_slot": (
            1e6 * layer_self["engine"] / engine_slots if engine_slots
            else 0.0, "us"),
        "harness.build_problem_s": (per_op(total("harness.build_problem",
                                                 True)), "s"),
        "harness.baseline_self_s": (per_op(total(
            "harness.centralized_baseline")), "s"),
        "harness.reduce_s": (per_op(total("harness.reduce_metrics")), "s"),
        "harness.emit_s": (per_op(total("harness.run_experiment")), "s"),
        "harness.bytes_written": (per_op(sum(bytes_written)), "bytes"),
        "audit.indicators_s": (per_op(total(
            "audit.build_delivery_indicators")), "s"),
        "audit.matrix_s": (per_op(total("audit.build_mass_matrix")), "s"),
        "audit.matrices": (per_op(names.count("audit.build_mass_matrix")),
                           "count"),
        "audit.matrix_nnz": (per_op(count("nnz")), "count"),
        "audit.step_s": (per_op(total("audit.run_linear_audit")), "s"),
        "audit.cross_validate_s": (per_op(total("audit.cross_validate",
                                                True)), "s"),
        "audit.identities_failed": (per_op(count("identities_failed")),
                                    "count"),
    }
    # rng.draw_s and engine.self_s already are those layers' self times.
    for layer in ("faultnet", "objectives", "optimizer", "harness", "audit"):
        m[f"{layer}.self_s"] = (per_op(layer_self[layer]), "s")
    m["trace.op_s"] = (per_op(op_s), "s")
    m["trace.unattributed_s"] = (per_op(op_s - sum(layer_self.values())),
                                 "s")
    return m
