"""Outside-in tracer for fracspec.

The tracer wraps, by name, the functions and public methods of each
fracspec layer module and the numpy/scipy kernels those layers call, in
every ``fracspec.*`` namespace that binds them.  Each wrapped call records
a span ``[name, start, end, parent, op]`` in memory; :meth:`Tracer.restore`
puts every original binding back.  Nothing in the program changes.

Spans are kept on one stack, so only single-threaded callers are traced
correctly; the benchmark pins every workload to one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "config", "core", "fractional", "symbols", "elliptic", "parabolic", "bvp")

# Kernel group -> (module, attribute) pairs.  fracspec reaches the numpy
# kernels through the module attribute (``np.fft.fft``) and binds scipy's
# ``expm`` in ``fracspec.parabolic``.
KERNELS = {
    "fft": (("numpy.fft", "fft"), ("numpy.fft", "ifft")),
    "svd": (("numpy.linalg", "svd"),),
    "solve": (("numpy.linalg", "solve"), ("numpy.linalg", "inv")),
    "eig": (("numpy.linalg", "eigvals"), ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh")),
    "expm": (("fracspec.parabolic", "expm"),),
}

# Helpers called once per CSV value or row; a span there costs more than the work.
SKIP = frozenset({"cli._fmt", "cli._value_cols", "symbols._json_value"})

# Spans whose duration is the time spent writing artifacts.
WRITERS = frozenset({"cli._write_csv", "cli._write_json"})


def _digest(arr) -> tuple:
    """Key of an array's contents; a 64-bit hash, as only equality matters."""
    a = np.asarray(arr)
    return (a.shape, a.dtype.str, hash(a.tobytes()))


def _fwd_key(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return (f.grid.half_width, f.grid.size, _digest(f.values))


def _frac_power_key(args, kwargs):
    xi = args[0] if args else kwargs["xi"]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return (_digest(np.asarray(xi, dtype=float)), float(alpha))


def _q_key(args, kwargs):
    prob, xi, lam = args
    mat = prob.A.constant_matrix
    return (
        prob.order.gamma,
        prob.q_form,
        prob.a.name,
        prob.A.name,
        None if mat is None else _digest(mat),
        _digest(xi),
        complex(lam),
    )


# Span name -> function of the call's arguments giving a hashable key; the
# distinct keys per op over the calls per op is the wasted-work ratio.
DISTINCT = {
    "core.forward_transform": _fwd_key,
    "fractional.frac_power_i_xi": _frac_power_key,
    "symbols._q_stack": _q_key,
}


def _fft_points(args, kwargs):
    return int(np.size(args[0]))


def _svd_matrices(args, kwargs):
    shape = np.shape(args[0])
    return int(math.prod(shape[:-2]))


# Span name -> function of the call's arguments giving the work it was handed.
VOLUME = {
    "kernel.fft": _fft_points,
    "kernel.ifft": _fft_points,
    "kernel.svd": _svd_matrices,
}


# Kernel span name -> its group, as in "kernel.ifft" -> "fft".
_GROUP = {f"kernel.{attr}": group for group, targets in KERNELS.items() for _, attr in targets}


class Tracer:
    """Records spans of wrapped calls while installed; use as a context manager.

    The caller numbers its ops by setting ``op``; spans and counters are
    kept per op.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.keys: dict = defaultdict(set)  # (op, name) -> distinct keys
        self.volume: dict = defaultdict(int)  # (op, name) -> work handed in

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        modules = [importlib.import_module("fracspec")]
        modules += [importlib.import_module(f"fracspec.{layer}") for layer in LAYERS]
        try:
            for layer, mod in zip(LAYERS, modules[1:]):
                for attr, obj in list(vars(mod).items()):
                    name = f"{layer}.{attr}"
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        if name not in SKIP:
                            self._rebind(modules, obj, self._wrap(name, obj))
                    elif (
                        inspect.isclass(obj)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                    ):
                        self._wrap_methods(name, obj)
            for targets in KERNELS.values():
                for owner_name, attr in targets:
                    owner = importlib.import_module(owner_name)
                    obj = getattr(owner, attr)
                    self._rebind(modules + [owner], obj, self._wrap(f"kernel.{attr}", obj))
        except BaseException:
            self.restore()
            raise

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{prefix}.{attr}", raw)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def restore(self) -> None:
        """Put back every binding replaced by :meth:`install`, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        key_of = DISTINCT.get(name)
        volume_of = VOLUME.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            parent = stack[-1] if stack else -1
            if key_of is not None or volume_of is not None:
                # Hashing arguments is the tracer's own work: a "trace.probe"
                # child keeps it out of the caller's self time.
                start = clock()
                if key_of is not None:
                    tracer.keys[(op, name)].add(key_of(args, kwargs))
                if volume_of is not None:
                    tracer.volume[(op, name)] += volume_of(args, kwargs)
                spans.append(["trace.probe", start, clock(), parent, op])
            span = [name, 0.0, 0.0, parent, op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    # -- analysis -----------------------------------------------------------

    def summaries(self) -> dict:
        """Per-layer metrics of every op, keyed by op id."""
        selfs = self_times(self.spans)
        ops: dict = {}
        for span, own in zip(self.spans, selfs):
            ops.setdefault(span[4], []).append((span, own))
        return {
            op: summarize(
                rows,
                {name: len(keys) for (o, name), keys in self.keys.items() if o == op},
                {name: v for (o, name), v in self.volume.items() if o == op},
            )
            for op, rows in ops.items()
        }


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` are ``[name, start, end, parent, op]`` with ``parent`` an index
    into the same list, or -1.  Children of one parent run one after the
    other, so the time they cover is the sum of their durations.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(rows: list, distinct: dict, volume: dict) -> dict:
    """Per-layer metrics of one op.

    ``rows`` are ``(span, self_time)`` pairs; ``distinct`` maps a span name to
    its number of distinct argument keys and ``volume`` to the work handed in.
    """
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    for group in KERNELS:
        m[f"kernel.{group}_s"] = 0.0
        m[f"kernel.{group}_calls"] = 0
    calls: dict = defaultdict(int)
    write_s = 0.0
    for span, own in rows:
        name = span[0]
        calls[name] += 1
        layer = name.split(".", 1)[0]
        if layer == "trace":  # the tracer's own argument hashing
            continue
        if layer == "kernel":
            m[f"kernel.{_GROUP[name]}_s"] += own
            m[f"kernel.{_GROUP[name]}_calls"] += 1
        else:
            m[f"{layer}.self_s"] += own
            m[f"{layer}.calls"] += 1
        if name in WRITERS:
            write_s += span[2] - span[1]
    m["kernel.fft_points"] = volume.get("kernel.fft", 0) + volume.get("kernel.ifft", 0)
    m["kernel.svd_matrices"] = volume.get("kernel.svd", 0)
    for metric, name in (
        ("core.fwd_distinct_ratio", "core.forward_transform"),
        ("fractional.frac_power_distinct_ratio", "fractional.frac_power_i_xi"),
        ("symbols.q_distinct_ratio", "symbols._q_stack"),
    ):
        m[metric] = distinct.get(name, 0) / calls[name] if calls[name] else 1.0
    m["cli.write_s"] = write_s
    return m
