"""Spans around latticegas's layers, recorded from outside the package.

``install`` replaces the traced functions with timing wrappers.  Because
``from .x import f`` binds ``f`` at import time, the wrapper is put in
place of every binding of the original in every loaded latticegas
module (``chain.count_open``, ``oracle.count_lattice``, the names ``cli``
imports, ``bounds.dominant_eigenvalue`` ...).  Methods and the ``dense``
cached property are wrapped on ``StepMatrix`` itself.

A span is ``[name, start, end, parent, note, excluded]``: perf_counter
seconds, the index of the enclosing span (-1 at top level), a small dict
of counts taken from the call's arguments and result after the span
ends, and the seconds that the notes of spans nested in it took.  A note
runs inside the enclosing spans, so its time is taken off their
durations.
Spans stay in memory; ``layer_metrics`` folds them into the per-layer
figures named in BENCHMARK.json (README.md tables which end-to-end
metric each should move), and the worker writes them out when its pass
is over.
"""
from __future__ import annotations

import sys
from functools import cached_property
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span named ``name`` around each call.

        ``note(args, kwargs, result)`` returns the span's counts; it runs
        after the span is closed, and its time is added to the
        ``excluded`` time of every span still open.
        """
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                noted = perf_counter()
                span[4] = note(args, kwargs, result)
                noted = perf_counter() - noted
                for i in stack:
                    spans[i][5] += noted
            return result

        return traced


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _enumerate_note(args, kwargs, space):
    return {"states": len(space), "masks": 2 ** _arg(args, kwargs, 1, "length")}


def _build_step_note(args, kwargs, step):
    rows, cols = step.shape
    return {"entries": rows * cols, "nonzero": sum(map(sum, step.entries))}


def _cyclic_note(args, kwargs, total):
    return {"sweeps": len(_arg(args, kwargs, 0, "chain").entry_space)}


def _eigen_note(args, kwargs, result):
    chain = _arg(args, kwargs, 0, "chain")
    steps = len(getattr(chain, "steps", chain))
    return {"iterations": result.iterations, "matvecs": result.iterations * steps,
            "residual": result.residual}


def _instance_note(args, kwargs, result):
    return {"topology": _arg(args, kwargs, 0, "instance").topology.value}


def _verify_note(args, kwargs, result):
    return {"vertices": result.instance.vertices, "mismatch": int(not result.ok)}


# (module, name, note): module-level functions to trace.
FUNCTIONS = (
    ("cli", "main", None),
    ("statespace", "enumerate_states", _enumerate_note),
    ("compat", "build_step", _build_step_note),
    ("chain", "transfer_chain", None),
    ("chain", "count_lattice", _instance_note),
    ("chain", "count_open", lambda a, k, r: {"sweeps": 1}),
    ("chain", "count_cyclic", _cyclic_note),
    ("spectral", "dominant_eigenvalue", _eigen_note),
    ("bounds", "entropy_interval", None),
    ("bounds", "bound_table", None),
    ("oracle", "verify_instance", _verify_note),
    ("oracle", "build_graph", None),
    ("oracle", "brute_count", None),
)


def install(tracer: Tracer) -> None:
    """Route every traced latticegas call through ``tracer``."""
    modules = [m for name, m in sys.modules.items()
               if name == "latticegas" or name.startswith("latticegas.")]
    for module, name, note in FUNCTIONS:
        original = getattr(sys.modules[f"latticegas.{module}"], name)
        traced = tracer.wrap(f"{module}.{name}", original, note)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, traced)
    step = sys.modules["latticegas.compat"].StepMatrix
    step.push = tracer.wrap("compat.push", step.push)
    step.transposed = tracer.wrap("compat.transposed", step.transposed)
    dense = cached_property(tracer.wrap("compat.dense", step.__dict__["dense"].func))
    dense.__set_name__(step, "dense")
    step.dense = dense


def layer_metrics(spans: list[list], cache_info: tuple) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    A span's duration leaves out its ``excluded`` note time, and self
    time is its duration minus its children's.  ``cache_info`` is
    (hits, misses) summed over the bounds module's root caches.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, excluded in spans:
        if parent >= 0:
            child_s[parent] += end - start - excluded
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, float] = {}
    cylinder_check_s = 0.0
    max_residual = 0.0
    for i, (name, start, end, parent, note, excluded) in enumerate(spans):
        dur = end - start - excluded
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
        calls[name] = calls.get(name, 0) + 1
        for k, v in (note or {}).items():
            if k == "residual":
                max_residual = max(max_residual, v)
            elif k != "topology":
                notes[f"{name}:{k}"] = notes.get(f"{name}:{k}", 0) + v
        # count_lattice counts a cylinder twice; the open rowwise sweep
        # is only there to cross-check the trace.
        if name == "chain.count_open" and parent >= 0:
            up = spans[parent]
            if up[0] == "chain.count_lattice" and up[4] and up[4]["topology"] == "cylinder":
                cylinder_check_s += dur

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n = notes.get
    hits, misses = cache_info
    return {
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "statespace.enumerate_calls": calls.get("statespace.enumerate_states", 0),
        "statespace.enumerate_s": total.get("statespace.enumerate_states", 0.0),
        "statespace.states": n("statespace.enumerate_states:states", 0),
        "statespace.kept_ratio": ratio(n("statespace.enumerate_states:states", 0),
                                       n("statespace.enumerate_states:masks", 0)),
        "compat.build_step_calls": calls.get("compat.build_step", 0),
        "compat.build_step_s": total.get("compat.build_step", 0.0),
        "compat.entries": n("compat.build_step:entries", 0),
        "compat.density": ratio(n("compat.build_step:nonzero", 0), n("compat.build_step:entries", 0)),
        "compat.transposed_s": total.get("compat.transposed", 0.0),
        "compat.dense_s": total.get("compat.dense", 0.0),
        "compat.push_calls": calls.get("compat.push", 0),
        "compat.push_s": total.get("compat.push", 0.0),
        "chain.transfer_chain_calls": calls.get("chain.transfer_chain", 0),
        "chain.transfer_chain_self_s": self_s.get("chain.transfer_chain", 0.0),
        "chain.count_open_s": total.get("chain.count_open", 0.0),
        "chain.count_cyclic_s": total.get("chain.count_cyclic", 0.0),
        "chain.vector_sweeps": n("chain.count_open:sweeps", 0) + n("chain.count_cyclic:sweeps", 0),
        "chain.cylinder_check_s": cylinder_check_s,
        "spectral.calls": calls.get("spectral.dominant_eigenvalue", 0),
        "spectral.s": self_s.get("spectral.dominant_eigenvalue", 0.0),
        "spectral.iterations": n("spectral.dominant_eigenvalue:iterations", 0),
        "spectral.matvecs": n("spectral.dominant_eigenvalue:matvecs", 0),
        "spectral.max_residual": max_residual,
        "bounds.calls": calls.get("bounds.entropy_interval", 0),
        "bounds.self_s": self_s.get("bounds.entropy_interval", 0.0) + self_s.get("bounds.bound_table", 0.0),
        "bounds.root_cache_hits": hits,
        "bounds.root_cache_misses": misses,
        "bounds.root_cache_hit_ratio": ratio(hits, hits + misses),
        "oracle.instances": calls.get("oracle.verify_instance", 0),
        "oracle.vertices": n("oracle.verify_instance:vertices", 0),
        "oracle.build_graph_s": total.get("oracle.build_graph", 0.0),
        "oracle.brute_count_s": total.get("oracle.brute_count", 0.0),
        "oracle.mismatches": n("oracle.verify_instance:mismatch", 0),
    }
