"""Span tracing from the benchmark's side of each layer boundary.

The package is not instrumented.  While a :class:`Tracer` is installed it
replaces each public function named in :data:`TARGETS` with a wrapper, in
every ``dopplerlab`` module that binds it, and restores the originals on
``uninstall``.  Each call appends one span ``(name, start, end, parent,
op)`` to an in-memory list; counts come from the call's own arguments and
return values.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ASYMPTOTICS = ("classical_doppler", "wavenumber", "fm_dimensionless", "am_dimensionless",
               "phase_shift_dimensionless", "fm_factor", "am_factor", "lab_phase",
               "lab_phase_rate", "leading_order_field", "moving_frame_field")
CHARACTERISTICS = ("to_characteristic_coords", "slow_characteristic",
                   "transport_amplitude", "transport_solution", "general_excitation_field")


def _count_solve(counts, bound, result) -> None:
    _, resid, iters = result
    resid = np.atleast_1d(np.asarray(resid, dtype=float))
    iters = np.atleast_1d(np.asarray(iters))
    counts["oracle.solve.points"] += resid.size
    counts["oracle.solve.iters_sum"] += int(iters.sum())
    counts["oracle.solve.iters_max"] = max(counts["oracle.solve.iters_max"], int(iters.max()))
    counts["oracle.solve.converged"] += int(np.count_nonzero(resid <= bound.arguments["tol"]))


def _count_csv(counts, bound, result) -> None:
    counts["cli.csv.bytes"] += os.path.getsize(bound.arguments["path"])
    counts["cli.csv.rows"] += len(bound.arguments["columns"][0])


def _count_svg(counts, bound, result) -> None:
    counts["svgplot.bytes"] += os.path.getsize(bound.arguments["path"])
    counts["svgplot.points"] += len(bound.arguments["xdata"]) * len(bound.arguments["series"])


#: (span name, module, attribute path, counter).  A counter receives the
#: count table, the bound call arguments and the return value.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("motion.validate", "dopplerlab.motion", "validate", None),
    ("motion.eval", "dopplerlab.motion", "MotionProfile.eval", None),
    ("motion.custom", "dopplerlab.motion", "MotionProfile.custom", None),
    *(("asymptotics", "dopplerlab.asymptotics", name, None) for name in ASYMPTOTICS),
    ("oracle.solve", "dopplerlab._kernels", "solve_retarded", _count_solve),
    ("oracle.solve", "dopplerlab._kernels", "solve_retarded_scalar", _count_solve),
    ("oracle.compare", "dopplerlab.oracle", "compare_fields", None),
    *(("characteristics", "dopplerlab.characteristics", name, None)
      for name in CHARACTERISTICS),
    ("signal.sample", "dopplerlab.signal", "sample_receiver", None),
    ("signal.inst_freq", "dopplerlab.signal", "instantaneous_frequency", None),
    ("signal.spectrum", "dopplerlab.signal", "spectrum", None),
    ("cli.csv", "dopplerlab.cli", "write_csv", _count_csv),
    ("svgplot", "dopplerlab.svgplot", "line_plot", _count_svg),
)

#: Layers whose self time is reported as ``<layer>.s``; ``op`` is the root
#: span of each operation, so its self time is the command glue.
TIMED_LAYERS = ("motion.eval", "motion.custom", "asymptotics", "oracle.solve",
                "oracle.compare", "characteristics", "signal.sample", "signal.inst_freq",
                "signal.spectrum", "cli.csv", "svgplot")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.absent: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if counter is not None:
                try:
                    counter(self.counts, signature.bind(*args, **kwargs), result)
                except Exception as exc:  # a changed signature must not break the op
                    self._note(f"{name} counter: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call ``fn(*args)`` as the root span ``op`` of operation ``op_id``."""
        self.op_id = op_id
        return self._wrap("op", fn, None)(*args)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr, counter in TARGETS:
            target = _resolve(module_name, attr)
            if target is None:
                self._note(f"{module_name}.{attr}")
                continue
            owner, key, raw = target
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                self._patch(owner, key, raw, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, key, raw, self._wrap(name, raw, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
                for module in _package_modules():
                    for binding, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, binding, raw, wrapped)

    def _note(self, message: str) -> None:
        if message not in self.absent:
            self.absent.append(message)

    def _patch(self, owner, key: str, original, replacement) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "dopplerlab" or n.startswith("dopplerlab."))]


def _resolve(module_name: str, attr: str):
    """``(owner, key, raw attribute)`` for ``module.attr`` or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, key = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(key)
    if raw is None or not (callable(raw) or isinstance(raw, classmethod)):
        return None
    return owner, key, raw


def layer_metrics(spans: List[tuple], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    A span's self time is its duration minus that of its direct children;
    calls on one thread nest, so children never overlap.
    """
    counts = defaultdict(int, counts)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    top_asymptotics = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls[name] += 1
        if name == "asymptotics" and (parent < 0 or spans[parent][0] != "asymptotics"):
            top_asymptotics += 1

    out = {f"{layer}.s": self_s[layer] for layer in TIMED_LAYERS}
    out["cli.self.s"] = self_s["op"]
    points = counts["oracle.solve.points"]
    out.update({
        "oracle.solve.calls": calls["oracle.solve"],
        "oracle.solve.points": points,
        "oracle.solve.iters_mean": counts["oracle.solve.iters_sum"] / points if points else 0.0,
        "oracle.solve.iters_max": counts["oracle.solve.iters_max"],
        "oracle.solve.converged_frac": counts["oracle.solve.converged"] / points
        if points else 1.0,
        "asymptotics.calls": top_asymptotics,
        "cli.csv.bytes": counts["cli.csv.bytes"],
        "cli.csv.rows": counts["cli.csv.rows"],
        "svgplot.bytes": counts["svgplot.bytes"],
        "svgplot.points": counts["svgplot.points"],
        "motion.validate.calls": calls["motion.validate"],
        "motion.eval.calls": calls["motion.eval"],
    })
    return out


def write_spans(path: str, spans: List[tuple]) -> None:
    """Write spans as one JSON document of column names plus rows."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op"],
                   "rows": spans}, fh, separators=(",", ":"))
