"""Per-layer timing and counts, recorded from outside the library.

Tracer.install() replaces every binding of a layer's public function in the
loaded l1rec modules with a wrapper that records a span (name, start, end,
parent span, operation). Modules bind these names at import (`from .lp
import solve` in newton and recovery, `roots_in_interval` in funcrep,
localization and catalog), so each binding is replaced, and uninstall()
puts the originals back. A layer's self time is its spans' duration minus
the time covered by their child spans. ChebSeries evaluation and
integration are counted, not timed, and evaluator calls are counted by the
evaluator that Tracer.make hands to FuncRep.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np
from scipy.optimize import linprog

from l1rec import catalog
from l1rec.chebyshev import ChebSeries, interpolate_on_grid
from l1rec.funcrep import FuncRep
from l1rec.localization import minimax, omega_measure
from l1rec.lp import solve
from l1rec.newton import best_l1, newton_step
from l1rec.proxy import adaptive_proxy
from l1rec.recovery import recover_l1
from l1rec.rootfind import roots_in_interval


def _highs(counts, res, args, kwargs):
    counts["highs.nit"] += int(res.nit)
    # linprog(c, A_ub, b_ub, A_eq, b_eq, ...): rows HiGHS is given
    for pos, key in ((1, "A_ub"), (3, "A_eq")):
        A = kwargs.get(key, args[pos] if len(args) > pos else None)
        if A is not None:
            counts["lp.rows"] += int(A.shape[0])


def _step(counts, state, args, kwargs):
    counts["newton.halvings"] += int(state.halvings)


def _minimax(counts, res, args, kwargs):
    counts["localization.remez_iters"] += int(res.iterations)


def _proxy(counts, prox, args, kwargs):
    counts["proxy.pieces"] += len(getattr(prox, "pieces", (prox,)))


# span name, the function whose bindings are wrapped, the count of its calls
# (failed ones included), and the counts taken from what it returned
LAYERS = (
    ("highs.run", linprog, None, _highs),
    ("lp.solve", solve, "lp.calls", None),
    ("recovery.recover", recover_l1, None, None),
    ("newton.best_l1", best_l1, None, None),
    ("newton.step", newton_step, "newton.steps", _step),
    ("localization.minimax", minimax, None, _minimax),
    ("localization.omega", omega_measure, None, None),
    ("chebyshev.interpolate", interpolate_on_grid, None, None),
    ("proxy.build", adaptive_proxy, None, _proxy),
    ("rootfind.roots", roots_in_interval, "rootfind.calls", None),
)

COUNTS = (
    "highs.nit",
    "lp.calls",
    "lp.rows",
    "newton.steps",
    "newton.halvings",
    "localization.remez_iters",
    "chebyshev.clenshaw_calls",
    "chebyshev.clenshaw_points",
    "chebyshev.integrate_calls",
    "proxy.pieces",
    "rootfind.calls",
    "funcrep.eval_calls",
    "funcrep.eval_points",
)


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # (name, start, end, parent span index or None, op index)
        self.op = None  # index of the operation being timed
        self._stack = []  # [span index, time covered by children] per open span
        self._undo = []

    def _wrap(self, name, fn, calls, after):
        def wrapper(*args, **kwargs):
            if calls is not None:
                self.counts[calls] += 1
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.self_time[name] += (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(self.counts, out, args, kwargs)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "l1rec" or key.startswith("l1rec.")]
        for name, fn, calls, after in LAYERS:
            wrapper = self._wrap(name, fn, calls, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, fn))
        counts = self.counts
        call, integrate = ChebSeries.__call__, ChebSeries.integrate

        def counted_call(series, x):
            counts["chebyshev.clenshaw_calls"] += 1
            counts["chebyshev.clenshaw_points"] += int(np.size(x))
            return call(series, x)

        def counted_integrate(series, a=-1.0, b=1.0):
            counts["chebyshev.integrate_calls"] += 1
            return integrate(series, a, b)

        ChebSeries.__call__ = counted_call
        ChebSeries.integrate = counted_integrate
        self._undo += [(ChebSeries, "__call__", call), (ChebSeries, "integrate", integrate)]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def make(self, spec: str) -> FuncRep:
        """The FuncRep the library would build for spec, with an evaluator
        that counts calls and points."""
        base = catalog.resolve_function(spec)
        inner, counts = base.eval, self.counts

        def evaluate(x):
            counts["funcrep.eval_calls"] += 1
            counts["funcrep.eval_points"] += int(np.size(x))
            return inner(x)

        return FuncRep(evaluate, breakpoints=base.breakpoints, corruption=base.corruption, name=base.name)

    def metrics(self, rounds: int) -> dict:
        """Per-round self times and counts, as {name: {"value", "unit"}}."""
        out = {f"{name}_s": {"value": self.self_time[name] / rounds, "unit": "s"} for name, *_ in LAYERS}
        out.update({name: {"value": self.counts[name] / rounds, "unit": "count"} for name in COUNTS})
        return out
