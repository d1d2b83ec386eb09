"""Outside-in tracer for the fibrum package.

The tracer never edits the package.  It replaces module attributes from
outside: every public function defined in one of the nine layer modules is
wrapped once, and that one wrapper is bound under the function's name in
*every* module that imported it (``from .calculus import jacobian`` gives
``connection``, ``curvature``, ``bundle`` ... each their own binding).  A
call therefore passes through exactly one wrapper, whichever binding the
caller used.

Per function the tracer keeps

* ``calls``  - every call, nested ones included;
* ``incl``   - span time, counted once: a call made while the same function
  is already active adds no inclusive time of its own;
* ``self``   - span time minus the time of wrapped child spans.

Per layer it keeps the time covered by that layer's outermost spans.

Four hooks reach work that has no public function of its own:

* ``transport._rk4`` (the private RK4 integrator): RK4 steps, counted as
  right-hand-side evaluations / 4, and the length of collected paths;
* ``ConnectionField.gamma``: the evaluator of every connection returned by
  ``catalog.build_connection`` is wrapped as ``connection.gamma``;
* ``bundle.lie_bracket``: the field it returns is re-wrapped so that its
  evaluations show as ``bundle.lie_bracket.eval``;
* ``curvature.compare_curvature_routes``: the number of sample points it
  is given (the denominator of ``cross_bracket_sum.per_sample``).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types

LAYERS = ("calculus", "bundle", "connection", "curvature", "transport",
          "scenarios", "config", "catalog", "cli")


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps fibrum's public functions on ``install`` and restores them on
    ``uninstall``.  Counters live on the instance; use one per traced pass."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.rk4_rhs_calls = 0
        self.path_entries = 0
        self.route_samples = 0
        self.report_bytes = 0
        # per layer: [depth of open spans, seconds under outermost spans]
        self._layers = {name: [0, 0.0] for name in LAYERS}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, fn, key: str, layer: str, pre=None, post=None):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        lay = self._layers[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            stat.calls += 1
            stat.depth += 1
            lay[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.self_s += dt - child
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl += dt
                lay[0] -= 1
                if lay[0] == 0:
                    lay[1] += dt
                if stack:
                    stack[-1] += dt
            return out if post is None else post(args, kwargs, out)

        return wrapper

    def _rk4_pre(self, args, kwargs):
        rhs = args[0]

        def counted(t, z):
            self.rk4_rhs_calls += 1
            return rhs(t, z)

        return (counted,) + tuple(args[1:]), kwargs

    def _rk4_post(self, args, kwargs, out):
        if kwargs.get("collect", args[7] if len(args) > 7 else False):
            self.path_entries += len(out[1])
        return out

    def _build_connection_post(self, args, kwargs, conn):
        object.__setattr__(conn, "gamma",
                           self._span(conn.gamma, "connection.gamma",
                                      "connection"))
        return conn

    def _lie_bracket_post(self, args, kwargs, field):
        return type(field)(field.bundle,
                           self._span(field.fn, "bundle.lie_bracket.eval",
                                      "bundle"))

    def _routes_pre(self, args, kwargs):
        samples = kwargs["samples"] if "samples" in kwargs else args[4]
        self.route_samples += len(samples)
        return args, kwargs

    def _emit_post(self, args, kwargs, out):
        self.report_bytes += os.path.getsize(args[1])
        return out

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fibrum.{name}")
                   for name in LAYERS}
        hooks = {
            "catalog.build_connection": (None, self._build_connection_post),
            "bundle.lie_bracket": (None, self._lie_bracket_post),
            "curvature.compare_curvature_routes": (self._routes_pre, None),
            "config.emit_report": (None, self._emit_post),
        }
        wrappers: dict[int, object] = {}
        owners = [importlib.import_module("fibrum")] + list(modules.values())
        for module in owners:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value,
                                                          types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in modules or not value.__module__.startswith(
                        "fibrum."):
                    continue
                if id(value) not in wrappers:
                    key = f"{layer}.{value.__name__}"
                    pre, post = hooks.get(key, (None, None))
                    wrappers[id(value)] = self._span(value, key, layer,
                                                     pre, post)
                self._patch(module, attr, wrappers[id(value)])
        transport = modules["transport"]
        self._patch(transport, "_rk4",
                    self._span(transport._rk4, "transport.rk4", "transport",
                               self._rk4_pre, self._rk4_post))

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Every deterministic counter, for the repeat-identity check."""
        out = {key: stat.calls for key, stat in sorted(self.stats.items())}
        out["transport.rk4_rhs_calls"] = self.rk4_rhs_calls
        out["transport.path_entries"] = self.path_entries
        out["curvature.route_samples"] = self.route_samples
        out["config.report_bytes"] = self.report_bytes
        return out

    def layer_s(self, layer: str) -> float:
        return self._layers[layer][1]

    def stat(self, key: str) -> _Stat:
        return self.stats.get(key) or _Stat()
