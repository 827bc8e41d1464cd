"""Per-layer tracing from outside the program.

`Tracer.install()` wraps every public function of the traced modules at
every module binding (so `control.propagate_values`, bound by
`from .transform import ...`, gets the same wrapper as
`transform.propagate_values`), plus `Field.__post_init__` and
`Region.indicator`.  Each wrapped call records a span
(name, start, end, parent, operation id) in memory; self time is a span's
duration minus what its child spans cover.  The solvers' operator and
preconditioner arguments are wrapped too: that counts matvecs and keeps the
operator's work out of the solver's self time.  Iterations and convergence
are read from the returned results.  `uninstall()` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = ("transform", "solvers", "control", "inequalities", "counterexamples",
          "field", "cli")
SOLVERS = ("solvers.lanczos_smallest", "solvers.conjugate_gradient")
# not wrapped: the benchmark opens its own per-operation span around cli.main
SKIP = {"cli.main"}


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent_index, op_id]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_id = -1
        self._restore: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def start_operation(self, op_id: int, name: str) -> int:
        self.op_id = op_id
        return self.open(name)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable,
                      after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(name, args, kwargs, result)
            return result

        return wrapper

    def _solver_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)
        counts = self.counts

        def counted(op: Callable, span: str, counter: str) -> Callable:
            def apply(v):
                counts[name][counter] += 1
                index = tracer.open(span)
                try:
                    return op(v)
                finally:
                    tracer.close(index)
            return apply

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["apply_op"] = counted(
                bound.arguments["apply_op"], "solvers.operator", "matvecs")
            if bound.arguments.get("precondition") is not None:
                bound.arguments["precondition"] = counted(
                    bound.arguments["precondition"], "solvers.preconditioner",
                    "preconditioner_applies")
            index = tracer.open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                tracer.close(index)
            counts[name]["iterations"] += result.iterations
            counts[name]["converged"] += bool(result.converged)
            return result

        return wrapper

    def _after_propagate(self, name, args, kwargs, result) -> None:
        grid, values = args[0], args[1]
        self.counts[name]["points"] += grid.node_count
        self.counts[name]["computed_bytes"] += values.nbytes + result.nbytes

    def _after_write(self, name, args, kwargs, result) -> None:
        out_path = Path(args[1])
        self.counts[name]["bytes"] += (out_path.stat().st_size
                                       + out_path.with_suffix(".json").stat().st_size)

    def install(self) -> None:
        """Wrap the traced modules' public functions at every binding."""
        package = sys.modules["schrodlab"]
        modules = {name: sys.modules[f"schrodlab.{name}"] for name in LAYERS}
        wrappers: Dict[int, Callable] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or id(obj) in wrappers:
                    continue
                name = f"{short}.{attr}"
                if name in SKIP:
                    continue
                if name in SOLVERS:
                    wrappers[id(obj)] = self._solver_wrapper(name, obj)
                elif name == "transform.propagate_values":
                    wrappers[id(obj)] = self._span_wrapper(name, obj, self._after_propagate)
                elif name == "cli.write_outputs":
                    wrappers[id(obj)] = self._span_wrapper(name, obj, self._after_write)
                else:
                    wrappers[id(obj)] = self._span_wrapper(name, obj)
        bindings = [package] + [m for key, m in sys.modules.items()
                                if key.startswith("schrodlab.")]
        for module in bindings:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        field = modules["field"]
        for cls, attr, name in ((field.Field, "__post_init__", "field.Field"),
                                (field.Region, "indicator", "field.Region.indicator")):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._span_wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation ---------------------------------------------------------

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s (inclusive) and self_s, plus the
        counters recorded at the same boundary."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - children) * 1e-9
        for name, counters in self.counts.items():
            out[name].update(counters)
        return dict(out)
