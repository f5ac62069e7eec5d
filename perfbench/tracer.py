"""Span tracing of rhosplit's public functions, installed from outside.

``Tracer.install`` replaces the functions and methods listed in LAYERS
with wrappers that record one span per call: name, start, end, parent
span and op id.  Spans stay in memory in flat arrays until ``write``.
Hooks listed in COUNTERS only count; they record no span, so they take
no time away from their caller's self time.

``contains`` is deliberately not wrapped: the head scan calls it once
per element, and a span per call would swamp the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

from rhosplit import (adversary, certificates, cli, density, omega_sets,
                      partitions, preservation, relsys, rho_transform)

# (owner, attribute, span name)
LAYERS = [
    (omega_sets, "parse_set", "omega_sets.parse_set"),
    (partitions, "build_partition", "partitions.build_partition"),
    (partitions.IntervalPartition, "trace", "partitions.trace"),
    (partitions.IntervalSymbolicSet, "count_below", "partitions.symbolic_count"),
    (partitions.IntervalSymbolicSet, "counts_at", "partitions.symbolic_count"),
    (partitions.IntervalSymbolicSet, "prefix_count", "partitions.symbolic_count"),
    (partitions.IntervalSymbolicSet, "kth_element", "partitions.symbolic_count"),
    (partitions.IntervalSubset, "count_strictly_below", "partitions.symbolic_count"),
    (partitions.IntervalSubset, "intersect_set_count", "partitions.symbolic_count"),
    (partitions.IntervalSubset, "intersect_subset_count", "partitions.symbolic_count"),
    (density, "density_report", "density.density_report"),
    (density, "split_verdict", "density.split_verdict"),
    (rho_transform, "transform_splitter", "rho_transform.transform_splitter"),
    (rho_transform, "build_chain", "rho_transform.build_chain"),
    (adversary, "defeat_bisector", "adversary.defeat_bisector"),
    (adversary, "centred_escape", "adversary.escape"),
    (adversary, "half_slalom", "adversary.escape"),
    (adversary, "laver_escape", "adversary.escape"),
    (certificates, "verify_certificate", "certificates.verify"),
    (certificates.Certificate, "dumps", "certificates.serde"),
    (certificates.Certificate, "loads", "certificates.serde"),
    (certificates.Certificate, "to_json", "certificates.serde"),
    (certificates.Certificate, "from_json", "certificates.serde"),
    (preservation, "rel_holds", "preservation.rel_holds"),
    (preservation, "witness_above", "preservation.witness"),
    (preservation, "witness_below", "preservation.witness"),
    (preservation, "nwd_escape", "preservation.witness"),
    (preservation, "reap_tukey_map", "preservation.witness"),
    (relsys, "bounding_number", "relsys.bounding_number"),
    (relsys, "dominating_number", "relsys.dominating_number"),
    (cli, "run", "cli.run"),
]

# every OmegaSet class that defines one of these gets its own wrapper;
# IntervalSymbolicSet's counting is already listed under partitions
OMEGA_METHODS = ("counts_at", "count_below", "materialize", "kth_element")

# (owner, attribute, counter name): counted, not timed
COUNTERS = [
    (relsys, "random_system", "relsys.systems"),
    (rho_transform, "_accepted_proposal", "rho_transform.accepted"),
]


def _omega_classes():
    seen, todo = [], [omega_sets.OmegaSet]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _oracle_classes():
    return [rho_transform.SplitterOracle, *rho_transform.SplitterOracle.__subclasses__()]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ----------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _span_wrapper(self, name: str, fn, after=None):
        nid = self._name(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(None, exc)
                raise
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, None)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += 1
            return result

        return wrapper

    def _after(self, name: str):
        """Counts taken where the work happens, from results and errors."""
        c = self.counters
        if name == "omega_sets.materialize":
            def after(result, exc):
                # a cache hit returns a view of the cached vector; count
                # only vectors built by this call
                if exc is None and isinstance(result, np.ndarray) and result.base is None:
                    c["omega_sets.materialize.bytes"] += result.nbytes
            return after
        if name == "density.density_report":
            def after(result, exc):
                if exc is None:
                    c["density.checkpoints"] += len(result.checkpoints)
            return after
        if name == "certificates.verify":
            def after(result, exc):
                if exc is None and not result:
                    c["certificates.rejected"] += 1
            return after
        if name == "rho_transform.transform_splitter":
            def after(result, exc):
                if isinstance(exc, (rho_transform.TransformError,
                                    rho_transform.OracleExhaustedError)):
                    c["rho_transform.transform_errors"] += 1
            return after
        return None

    # -- installation -------------------------------------------------------

    def _plan(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        new = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
        self._patches.append((owner, attr, raw, new))
        if not isinstance(owner, type):
            # functions imported by name into other modules are rebound too
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("rhosplit") and mod is not owner:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patches.append((mod, key, raw, new))

    def _plan_all(self) -> None:
        def span(name):
            return lambda f: self._span_wrapper(name, f, self._after(name))

        def count(name):
            return lambda f: self._count_wrapper(name, f)

        for owner, attr, name in LAYERS:
            self._plan(owner, attr, span(name))
        for cls in _omega_classes():
            if cls.__module__ == omega_sets.__name__:
                for meth in OMEGA_METHODS:
                    if meth in cls.__dict__:
                        self._plan(cls, meth, span(f"omega_sets.{meth}"))
        for cls in _oracle_classes():
            if "propose" in cls.__dict__:
                self._plan(cls, "propose", count("rho_transform.proposals"))
        for owner, attr, name in COUNTERS:
            self._plan(owner, attr, count(name))

    def install(self) -> None:
        if not self._patches:
            self._plan_all()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    # -- reduction and output -----------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name; self time is a span's
        duration minus the durations of its child spans."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        calls, self_s = Counter(), Counter()
        for nid, label in enumerate(self.names):
            mask = name == nid
            calls[label] = int(mask.sum())
            self_s[label] = float(selft[mask].sum())
        return calls, self_s

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i],
                                     self.span_op[i]]) + "\n")
