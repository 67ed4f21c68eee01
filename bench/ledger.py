"""Per-layer wall-time ledger, measured from outside the simulator.

A :class:`Tracer` wraps every function and method defined in the
modules of each simulator layer (``LAYER_MODULES``) before any NIC is
built, and rebinds every ``repro`` module name that pointed at an
original, so callers that imported a function by name reach the wrapper
too.  A wrapper records a *span* -- function, start, end, parent span --
only when the call crosses from one layer into another; a call inside
the same layer just counts and passes through, so its time stays in the
layer's self time.  Code in modules that map to no layer (``repro.sim``
clock/stats/rng, ``repro.faults``, ``repro.telemetry``) is charged to
the layer that called it.

A layer's *self time* is the sum over its spans of span duration minus
the durations of the span's direct children.  The benchmark opens one
root span around the measured region; its self time is
``trace.unattributed_s``.  Self times therefore sum to the wall of the
top-level spans exactly, which the benchmark checks.

Shard workers are forked while the wrappers are installed, so they
inherit them.  A fork hook gives each child an empty span log; when the
child's outermost span (the worker's main loop) closes, the child writes
its spans and call counts to the tracer's directory, where
:meth:`Tracer.collect` picks them up after the run.

Wrappers only observe: the benchmark checks that a traced run's
simulated results equal the untraced run's.
"""

from __future__ import annotations

import array
import enum
import functools
import glob
import gzip
import importlib
import inspect
import os
import pickle
import pkgutil
import sys
import time
import types
from typing import Dict, List, Optional, Tuple

#: Layers of the ledger, in report order.  The metric prefix is the name.
LAYERS = (
    "kernel", "shard", "noc", "rmt", "engines", "sched", "packet", "host",
    "wire", "reliability", "lb", "workload",
)

#: Module (or package) -> layer.  The longest matching prefix wins, so
#: DMA and PCIe count as host even though they live under ``engines``.
LAYER_MODULES = {
    "repro.sim.kernel": "kernel",
    "repro.sim.shard": "shard",
    "repro.core.topology": "shard",
    "repro.noc": "noc",
    "repro.rmt": "rmt",
    "repro.engines": "engines",
    "repro.engines.dma": "host",
    "repro.engines.pcie": "host",
    "repro.sched": "sched",
    "repro.packet": "packet",
    "repro.core": "host",
    "repro.workloads": "workload",
    "repro.workloads.wire": "wire",
    "repro.reliability": "reliability",
    "repro.lb": "lb",
    "repro.lb.rack": "workload",
}

#: Layer index of the benchmark's root span (time in no layer).
UNATTRIBUTED = len(LAYERS)

#: Dunder methods worth a span; other dunders (comparisons, hashing,
#: repr) are left alone.
_WRAPPED_DUNDERS = ("__init__", "__call__")


def layer_of(module: str) -> Optional[str]:
    """The layer a module belongs to, or None when it maps to none."""
    best = None
    for prefix, layer in LAYER_MODULES.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def _import_all(package: str = "repro") -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _wrappable(fn, module: str) -> bool:
    if not isinstance(fn, types.FunctionType) or fn.__module__ != module:
        return False
    name = fn.__name__
    if name.startswith("__") and name.endswith("__"):
        return name in _WRAPPED_DUNDERS
    return not inspect.isgeneratorfunction(fn)


class Tracer:
    """Installs span-recording wrappers and keeps the span log.

    Use :meth:`install`, then :meth:`open_root` / :meth:`close_root`
    around the measured region, then :meth:`uninstall` and
    :meth:`collect`; :meth:`reset` empties the log for the next traced
    run.  Make one per process: the fork hook keeps it alive.
    ``spool_dir`` receives forked children's logs.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.layer = -1          # layer index of the innermost open span
        self.span = -1           # index of the innermost open span
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.calls: List[int] = []
        self.func_names: List[str] = []
        self.func_layers: List[int] = []
        self.forked = False
        self.installed = False
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every function of every layer module, everywhere it is
        bound in a ``repro`` module."""
        _import_all()
        del self.func_names[:]
        del self.func_layers[:]
        del self.calls[:]
        wrappers: Dict[int, object] = {}
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if (name == "repro" or name.startswith("repro.")) and mod)
        for modname, module in modules:
            layer = layer_of(modname)
            if layer is None:
                continue
            index = LAYERS.index(layer)
            for attr, value in list(vars(module).items()):
                if _wrappable(value, modname):
                    self._patch(module, attr,
                                self._wrapper(value, index, wrappers))
                elif (isinstance(value, type) and value.__module__ == modname
                      and value.__qualname__ == attr
                      and not issubclass(value, (BaseException, enum.Enum))):
                    self._wrap_class(value, index, wrappers)
        # Second pass: names imported from a layer module into any other
        # repro module (``from repro.packet.builder import parse_frame``).
        for _modname, module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, wrapper)
        self.installed = True

    def _wrap_class(self, cls: type, index: int, wrappers) -> None:
        modname = cls.__module__
        for attr, member in list(vars(cls).items()):
            if isinstance(member, (staticmethod, classmethod)):
                inner = member.__func__
                if _wrappable(inner, modname):
                    self._patch(cls, attr, type(member)(
                        self._wrapper(inner, index, wrappers)))
            elif _wrappable(member, modname):
                self._patch(cls, attr, self._wrapper(member, index, wrappers))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    def _wrapper(self, fn, layer: int, wrappers):
        existing = wrappers.get(id(fn))
        if existing is not None:
            return existing
        fid = len(self.func_names)
        self.func_names.append(f"{fn.__module__}.{fn.__qualname__}")
        self.func_layers.append(layer)
        self.calls.append(0)
        tracer = self
        calls = self.calls
        names, parents = self.names, self.parents
        starts, ends = self.starts, self.ends
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[fid] += 1
            outer = tracer.layer
            if outer == layer:
                return fn(*args, **kwargs)
            parent = tracer.span
            index = len(starts)
            names.append(fid)
            parents.append(parent)
            ends.append(0.0)
            tracer.layer = layer
            tracer.span = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.layer = outer
                tracer.span = parent
                if parent < 0 and tracer.forked:
                    tracer._spool()

        functools.update_wrapper(traced, fn)
        wrappers[id(fn)] = traced
        return traced

    def reset(self) -> None:
        """Empty the span log and zero the call counts."""
        self.layer = -1
        self.span = -1
        for log in (self.names, self.parents, self.starts, self.ends):
            del log[:]
        self.calls[:] = [0] * len(self.calls)

    # -- the root span ---------------------------------------------------

    def open_root(self) -> int:
        index = len(self.starts)
        self.names.append(-1)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.layer = UNATTRIBUTED
        self.span = index
        self.starts.append(time.perf_counter())
        return index

    def close_root(self, index: int) -> float:
        """Close the root span; returns its duration (the traced wall)."""
        self.ends[index] = time.perf_counter()
        self.layer = -1
        self.span = -1
        return self.ends[index] - self.starts[index]

    # -- forked children -------------------------------------------------

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.forked = True
        self.reset()

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self._log(), fh)

    def _log(self) -> tuple:
        return (self.names, self.parents, self.starts, self.ends,
                list(self.calls))

    def collect(self) -> List[tuple]:
        """This process's span log followed by every forked child's,
        each ``(names, parents, starts, ends, calls)``.  Child spool
        files are read once and removed."""
        logs = [self._log()]
        for path in sorted(glob.glob(
                os.path.join(self.spool_dir, "spans-*.pkl"))):
            with open(path, "rb") as fh:
                logs.append(pickle.load(fh))
            os.remove(path)
        return logs


def ledger(tracer: Tracer, logs: List[tuple]) -> dict:
    """Roll span logs up into per-layer self time, call counts and
    per-process simulator busy time.

    Returns ``wall_s`` (sum of top-level span durations over all
    processes), ``self_s`` (layer -> seconds, ``unattributed`` included),
    ``calls`` (function name -> calls, summed over processes),
    ``busy_s`` (per process that ran ``Simulator.run``: seconds inside
    it) and ``spans``.
    """
    layers = list(LAYERS) + ["unattributed"]
    func_layers = tracer.func_layers
    run_ids = {i for i, name in enumerate(tracer.func_names)
               if name == "repro.sim.kernel.Simulator.run"}
    self_s = [0.0] * len(layers)
    calls = [0] * len(tracer.func_names)
    wall = 0.0
    busy = []
    spans = 0
    for names, parents, starts, ends, counts in logs:
        n = len(starts)
        spans += n
        child = [0.0] * n
        in_run = 0.0
        for i in range(n):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
            else:
                wall += duration
            if names[i] in run_ids:
                in_run += duration
        for i in range(n):
            fid = names[i]
            layer = UNATTRIBUTED if fid < 0 else func_layers[fid]
            self_s[layer] += ends[i] - starts[i] - child[i]
        for fid, count in enumerate(counts):
            calls[fid] += count
        if in_run:
            busy.append(in_run)
    return {
        "wall_s": wall,
        "self_s": dict(zip(layers, self_s)),
        "calls": {name: count
                  for name, count in zip(tracer.func_names, calls) if count},
        "busy_s": busy,
        "spans": spans,
    }


def write_spans(path: str, tracer: Tracer, logs: List[tuple]) -> None:
    """Write the span logs (one per process) with the function table,
    as a gzipped pickle."""
    with gzip.open(path, "wb", compresslevel=1) as fh:
        pickle.dump({
            "functions": tracer.func_names,
            "layers": [LAYERS[i] for i in tracer.func_layers],
            "processes": [
                {"names": names, "parents": parents,
                 "starts": starts, "ends": ends}
                for names, parents, starts, ends, _calls in logs
            ],
        }, fh)
