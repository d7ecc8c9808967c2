"""Span tracing of the library's layers from outside the library.

`Tracer.install` replaces every module global of the ordermotion package that
refers to a traced function (the defining module's own global as well as the
names other modules imported) by a timing wrapper, and `Tracer.uninstall`
puts the originals back. Each wrapped call inside an operation records one
span: name, start, end, parent span and operation id. Spans live in flat
arrays and are written out once, when the run ends.

The library is single-threaded under the benchmark (ORDERMOTION_THREADS is
unset), so spans nest properly: a span's children never overlap, and its self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NO_PARENT = -1
OUTSIDE_OP = -1


# Traced functions by span name, "<module>.<function>". The one traced
# method, Rotation.apply_exact, is patched on its class.
TRACED_FUNCTIONS = (
    "geometry.det_rational",
    "geometry.orient",
    "geometry.order_type",
    "polynomial.poly_gcd",
    "polynomial.square_free_part",
    "polynomial.square_free_decomposition",
    "polynomial.sturm_distinct_roots",
    "polynomial.sign_change_count",
    "pencil.build_pencil",
    "pencil.coefficient_profile",
    "pencil.localization_certified",
    "motion.linear_cost",
    "motion.sign_rule_ledger",
    "motion.certify_decay_scale",
    "motion.perturb_general",
    "motion.discretized_cost",
    "blowup.build_blowup",
    "blowup.verify_blowup",
    "rotation.haar_rotation",
    "rotation.is_good",
    "pool.ordered_map",
)
TRACED_METHOD = "rotation.apply_exact"


@dataclass
class Observation:
    """Sum and count of a number derived from traced calls (arguments or
    results), such as the mean bit length of determinant entries."""

    total: float = 0.0
    count: int = 0

    def add(self, value: float, weight: int = 1) -> None:
        self.total += value
        self.count += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _entry_bits(rows) -> tuple[int, int]:
    bits = 0
    count = 0
    for row in rows:
        for c in row:
            bits += c.numerator.bit_length() + c.denominator.bit_length()
            count += 1
    return bits, count


def _observe_det_input(tracer: "Tracer", args, kwargs, result) -> None:
    # Every DET_SAMPLE_STRIDE-th call only: scanning the entries costs a
    # fifth of a small determinant, which would inflate the callers' self time.
    tracer.det_calls_seen += 1
    if tracer.det_calls_seen % DET_SAMPLE_STRIDE == 0:
        bits, count = _entry_bits(args[0] if args else kwargs["rows"])
        tracer.observed["geometry.det_rational.input_bits"].add(bits, count)


def _observe_pencil_coeffs(tracer: "Tracer", args, kwargs, result) -> None:
    bits, count = _entry_bits([result.poly.coeffs])
    tracer.observed["pencil.build_pencil.coeff_bits"].add(bits, count)


def _observe_shared_roots(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.observed["motion.shared_root.reported"].add(len(result.shared_roots))


DET_SAMPLE_STRIDE = 16

OBSERVERS: dict[str, Callable] = {
    "geometry.det_rational": _observe_det_input,
    "pencil.build_pencil": _observe_pencil_coeffs,
    "motion.linear_cost": _observe_shared_roots,
}
OBSERVED_NAMES = (
    "geometry.det_rational.input_bits",
    "pencil.build_pencil.coeff_bits",
    "motion.shared_root.reported",
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = OUTSIDE_OP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.observed = {name: Observation() for name in OBSERVED_NAMES}
        self.det_calls_seen = 0

    def __len__(self) -> int:
        return len(self.span_start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself (an operation or one of
        its serialization phases)."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        observer = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op == OUTSIDE_OP:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observer is not None:
                observer(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.bench_traced = True
        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals: dict[int, tuple[Callable, Callable]] = {}
        for name in TRACED_FUNCTIONS:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"ordermotion.{module}"), attr)
            originals[id(fn)] = (fn, self.wrap(name, fn))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        from ordermotion.rotation import Rotation

        original = Rotation.apply_exact
        self._patched.append((Rotation, "apply_exact", original))
        Rotation.apply_exact = self.wrap(TRACED_METHOD, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.op = OUTSIDE_OP

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as compressed columns (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def _package_modules() -> list:
    return [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == "ordermotion" or key.startswith("ordermotion."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in the ordermotion package still bound to a timing wrapper."""
    from ordermotion.rotation import Rotation

    owners = [(module.__name__, vars(module)) for module in _package_modules()]
    owners.append(("Rotation", vars(Rotation)))
    return [
        f"{owner}.{attr}"
        for owner, namespace in owners
        for attr, value in namespace.items()
        if getattr(value, "bench_traced", False)
    ]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name, over spans recorded
    inside operations. Self time is the span's duration minus the durations
    of its direct children."""
    n = len(tracer)
    child_time = [0.0] * n
    durations = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    for i, parent in enumerate(tracer.span_parent):
        if parent != NO_PARENT:
            child_time[parent] += durations[i]
    stats = {name: SpanStats() for name in tracer.names}
    names = tracer.names
    for i in range(n):
        if tracer.span_op[i] == OUTSIDE_OP:
            continue
        st = stats[names[tracer.span_name[i]]]
        st.calls += 1
        st.total_s += durations[i]
        st.self_s += durations[i] - child_time[i]
    return stats


def count_with_parent(tracer: Tracer, name: str, parents: tuple[str, ...]) -> int:
    """Spans called `name` whose direct parent span is one of `parents`."""
    nid = tracer._name_ids.get(name)
    pids = {tracer._name_ids[p] for p in parents if p in tracer._name_ids}
    if nid is None or not pids:
        return 0
    count = 0
    for i, parent in enumerate(tracer.span_parent):
        if tracer.span_name[i] == nid and parent != NO_PARENT:
            if tracer.span_name[parent] in pids:
                count += 1
    return count


def count_with_ancestor(tracer: Tracer, name: str, ancestors: tuple[str, ...]) -> int:
    """Spans called `name` with one of `ancestors` anywhere above them."""
    nid = tracer._name_ids.get(name)
    aids = {tracer._name_ids[a] for a in ancestors if a in tracer._name_ids}
    if nid is None or not aids:
        return 0
    count = 0
    for i in range(len(tracer)):
        if tracer.span_name[i] != nid:
            continue
        p = tracer.span_parent[i]
        while p != NO_PARENT:
            if tracer.span_name[p] in aids:
                count += 1
                break
            p = tracer.span_parent[p]
    return count
