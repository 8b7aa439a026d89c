"""Outside-in tracer: spans around calls into pathpol's public functions.

The program is not edited. Instead every public module-level function of
every ``pathpol`` module is replaced, in every ``pathpol.*`` namespace that
binds it, by one timing wrapper; ``from .tensor import embed`` copies the
binding into ``bench`` and ``observables``, so patching ``tensor`` alone
would miss those calls. A span's layer is the module that defines the
function. ``scipy.optimize.minimize``, as bound in ``pathpol.contextuality``,
is wrapped as the layer ``scipy.minimize``.

Spans are kept in memory as ``(op, span, parent, layer, function, t0, t1)``
with span ids counted from 0 within each op, and written out at the end.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "tensor",
    "elements",
    "bench",
    "observables",
    "correlations",
    "contextuality",
    "detector",
    "scenario",
    "verify",
    "cli",
    "scipy.minimize",
)


def _pathpol_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "pathpol" or name.startswith("pathpol."))
    ]


class Tracer:
    """Installs the wrappers, records spans and per-function counters."""

    # functions whose arguments or results feed a counter (see _observe)
    _OBSERVED = {
        ("bench", "symmetrized_input"),
        ("contextuality", "scan_max"),
        ("detector", "autocorrelation_demo"),
    }

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._op = -1
        self._next_span = 0
        self._distinct_inputs: set = set()
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._next_span = 0
        self._distinct_inputs = set()

    def end_op(self) -> None:
        self.counters["symmetrized_input.distinct"] += len(self._distinct_inputs)

    # -- per-function observations ------------------------------------------

    def _observe(self, key: tuple[str, str], args: tuple, kwargs: dict, result) -> None:
        if key == ("bench", "symmetrized_input"):
            self._distinct_inputs.add((args, tuple(sorted(kwargs.items()))))
        elif key == ("contextuality", "scan_max"):
            resolution = kwargs.get("resolution", args[1] if len(args) > 1 else None)
            # the f and g grids of R^3 float64 each
            self.counters["contextuality.grid_bytes"] += 2 * resolution**3 * 8
        elif key == ("detector", "autocorrelation_demo"):
            self.counters["detector.samples"] += result.samples

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        key = (layer, name)
        observe = self._observe if key in self._OBSERVED else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                self_s[key] += duration - frame[1]
                calls[key] += 1
                spans.append((tracer._op, span, parent, layer, name, t0, t1))
            if observe is not None:
                observe(key, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public pathpol function in every namespace binding it."""
        modules = _pathpol_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("pathpol."):
                    continue
                if id(value) not in wrappers:
                    layer = home.split(".", 1)[1]
                    wrappers[id(value)] = self._wrap(value, layer, value.__name__)
                self._patch(mod, attr, wrappers[id(value)])
        ctx = sys.modules["pathpol.contextuality"]
        self._patch(ctx, "minimize", self._wrap(ctx.minimize, "scipy.minimize", "minimize"))

    def _patch(self, mod: types.ModuleType, attr: str, wrapper) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per layer, summed over its functions."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for key, n in self.calls.items():
            totals[key[0]][0] += n
            totals[key[0]][1] += self.self_s[key]
        return {layer: (n, s) for layer, (n, s) in totals.items()}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,function,t0,t1\n")
            for op, span, parent, layer, name, t0, t1 in self.spans:
                fh.write(f"{op},{span},{parent},{layer},{name},{t0:.9f},{t1:.9f}\n")
