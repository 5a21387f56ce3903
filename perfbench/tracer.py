"""Outside-in tracer for the ghlab layers.

The tracer never edits the package.  It replaces public functions and
methods with wrappers at run time: where each one is defined, and in
every ``ghlab`` module that imported it by name (so a call through
``ghlab.cli.closure_residual`` is seen as well as one through
``ghlab.verify.closure_residual``).  Each wrapped call opens a span.

Spans are kept in memory in flat arrays and written out once, at the
end of the run.  Aggregates are kept online as spans close:

- points: the number of z values passed in (array size for an array
  argument), so that a batched call cannot hide its work.  For a layer
  whose function takes no z, each call counts once.
- distinct: distinct z per owning object (``self``, or the Blaschke spec)
  within one pass, for the layers that can recompute the same point.
- busy_s: wall time inside the outermost span of the layer.
- self_s: span time minus the time covered by its child spans.
- raised: exceptions that passed out through the span, by type.
- holo_points: Blaschke points evaluated anywhere below the span.

The layers have no queues and no threads, so no span ever waits; the
wait time the metric method asks for is zero by construction and is not
recorded.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter

# The Blaschke jet is the unit of work that holo_points attributes to
# the spans above it.
HOLO_LAYER = "holo.blaschke"


@dataclass(frozen=True)
class Layer:
    """One traced public function.

    ``target`` is ``module:qualname``; ``zarg`` names the argument whose
    values are counted as points; ``units`` maps a result to a count of
    useful outcomes (zeros found) for per-outcome ratios; ``factory``
    marks a function that returns a callable whose calls are counted
    as the layer's points, without spans.
    """

    name: str
    target: str
    zarg: str | None = None
    distinct: bool = False
    units: object = None
    factory: bool = False


@dataclass
class LayerStats:
    points: int = 0
    distinct: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    holo_points: int = 0
    units: int = 0
    raised: dict = field(default_factory=dict)
    depth: int = 0
    seen: set = field(default_factory=set)


def _resolve(target: str):
    """(owner, attribute, function) for ``module:qualname``; raises
    LookupError with a reason when the module or attribute is gone."""
    modname, qualname = target.split(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        raise LookupError(f"module {modname} not importable: {exc}") from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{modname}.{'.'.join(parts[:-1])} not found")
    if isinstance(owner, type):
        fn = owner.__dict__.get(parts[-1])
    else:
        fn = getattr(owner, parts[-1], None)
    if fn is None:
        raise LookupError(f"{modname}.{qualname} not found")
    return owner, parts[-1], fn


def _arg_index(fn, zarg):
    if zarg is None:
        return None
    params = list(inspect.signature(fn).parameters)
    return params.index(zarg) if zarg in params else None


def _npoints(z) -> int:
    size = getattr(z, "size", None)
    return int(size) if size is not None else 1


def _zkeys(z):
    if getattr(z, "size", None) is not None:
        return [complex(v) for v in z.ravel().tolist()]
    return [complex(z)]


class Tracer:
    """Install with ``install(layers)``, bracket each pass with
    ``begin_pass``/``end_pass``, then ``uninstall``."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.missing: dict[str, str] = {}
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._exc_names: list[str] = []
        self._stack: list = []
        self._owners: dict = {}
        self._patches: list = []
        self._pass = -1
        self.passes = 0
        # span table, one entry per span, written out by spans()
        self._s_name = array("i")
        self._s_parent = array("q")
        self._s_pass = array("i")
        self._s_points = array("q")
        self._s_exc = array("i")
        self._s_start = array("d")
        self._s_end = array("d")

    # ---- installation ----------------------------------------------

    def install(self, layers) -> None:
        for layer in layers:
            try:
                owner, attr, fn = _resolve(layer.target)
            except LookupError as exc:
                self.missing[layer.name] = str(exc)
                continue
            self.stats[layer.name] = LayerStats()
            self._name_id[layer.name] = len(self.names)
            self.names.append(layer.name)
            if layer.factory:
                wrapper = self._factory_wrapper(layer, fn)
            else:
                wrapper = self._wrapper(layer, fn, _arg_index(fn, layer.zarg))
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                # every ghlab module that imported the function by name
                for modname, mod in list(sys.modules.items()):
                    if (modname.startswith("ghlab") and mod is not owner
                            and getattr(mod, attr, None) is fn):
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- passes ----------------------------------------------------

    def begin_pass(self) -> None:
        self._pass += 1

    def end_pass(self) -> None:
        for st in self.stats.values():
            st.distinct += len(st.seen)
            st.seen = set()
        self._owners.clear()
        self.passes += 1

    # ---- wrappers --------------------------------------------------

    def _wrapper(self, layer: Layer, fn, zidx):
        st = self.stats[layer.name]
        name_id = self._name_id[layer.name]
        zname = layer.zarg
        stack = self._stack
        distinct = layer.distinct
        units = layer.units
        s_name, s_parent, s_pass = self._s_name, self._s_parent, self._s_pass
        s_points, s_exc = self._s_points, self._s_exc
        s_start, s_end = self._s_start, self._s_end
        is_holo = layer.name == HOLO_LAYER
        owners = self._owners
        exc_id = self._exc_id

        def traced(*args, **kwargs):
            if zidx is None:
                n = 1
            else:
                z = args[zidx] if len(args) > zidx else kwargs[zname]
                n = _npoints(z)
                if distinct:
                    if zidx > 0:
                        # holding the owner keeps its id unique this pass
                        owner = args[0]
                        owners[id(owner)] = owner
                        st.seen.update((id(owner), k) for k in _zkeys(z))
                    else:
                        st.seen.update(_zkeys(z))
            st.points += n
            idx = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1][0] if stack else -1)
            s_pass.append(self._pass)
            s_points.append(n)
            s_exc.append(-1)
            s_end.append(0.0)
            # span index, time covered by child spans, Blaschke points below
            frame = [idx, 0.0, 0]
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                s_exc[idx] = exc_id(kind)
                st.raised[kind] = st.raised.get(kind, 0) + 1
                raise
            finally:
                t1 = perf_counter()
                s_end[idx] = t1
                stack.pop()
                st.depth -= 1
                dur = t1 - t0
                st.self_s += dur - frame[1]
                below = frame[2] + (n if is_holo else 0)
                if st.depth == 0:
                    st.busy_s += dur
                    st.holo_points += below
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent[2] += below
            if units is not None:
                st.units += units(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _factory_wrapper(self, layer: Layer, fn):
        st = self.stats[layer.name]

        def traced_factory(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def counted(*a, **k):
                st.points += 1
                return inner(*a, **k)

            return counted

        traced_factory.__wrapped__ = fn
        return traced_factory

    def _exc_id(self, name: str) -> int:
        if name not in self._exc_names:
            self._exc_names.append(name)
        return self._exc_names.index(name)

    # ---- output ----------------------------------------------------

    def spans(self) -> dict:
        """The span table as plain arrays (for numpy.savez)."""
        return {
            "layer": self._s_name, "parent": self._s_parent,
            "pass": self._s_pass, "points": self._s_points,
            "exception": self._s_exc, "start": self._s_start,
            "end": self._s_end,
            "layer_names": self.names, "exception_names": self._exc_names,
        }
