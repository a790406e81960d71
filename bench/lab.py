"""Timing, verdict bookkeeping and the opt-in tracer of the benchmark.

Every call the benchmark makes into xferlab goes through ``Lab.call``.  In an
untraced run that is a bare ``perf_counter`` pair whose sum is ``verdict_s``;
the benchmark's own checks run outside it.  In a traced run the same call
also opens a span, and ``install_wrappers`` wraps the library functions that
are reached only from inside other layers, so each per-layer metric has a
node with a parent in the trace tree.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter, perf_counter_ns


class Node:
    """One span, or one aggregate of many calls of a wrapped function under one parent."""

    __slots__ = ("id", "parent", "name", "calls", "ns", "counts", "start_ns")

    def __init__(self, id, parent, name, start_ns=None):
        self.id, self.parent, self.name = id, parent, name
        self.calls, self.ns, self.counts, self.start_ns = 0, 0, {}, start_ns

    def as_json(self) -> dict:
        out = {"id": self.id, "parent": self.parent, "name": self.name,
               "calls": self.calls, "ns": self.ns}
        if self.start_ns is not None:
            out["start_ns"] = self.start_ns
        if self.counts:
            out["counts"] = self.counts
        return out


class Tracer:
    """Spans kept in memory as a tree; written out once, at the end of the run.

    ``span`` opens one node per call (the benchmark's own calls).  ``inner``
    aggregates the calls of a wrapped library function per (parent, name),
    because some of them run a million times a round.  A wrapped function
    called directly under a span of its own name merges into that span.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._agg: dict[tuple[int, str], Node] = {}
        self._stack: list[Node] = []

    @property
    def current(self) -> Node | None:
        return self._stack[-1] if self._stack else None

    def _new(self, parent, name, start_ns=None) -> Node:
        node = Node(len(self.nodes), parent.id if parent else None, name, start_ns)
        self.nodes.append(node)
        return node

    def span(self, name):
        return _Span(self, name, aggregate=False)

    def inner(self, name):
        return _Span(self, name, aggregate=True)

    def count(self, key: str, n) -> None:
        node = self.current
        node.counts[key] = node.counts.get(key, 0) + n

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for node in self.nodes:
                fh.write(json.dumps(node.as_json()) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "aggregate", "node", "t0", "merged")

    def __init__(self, tracer, name, aggregate):
        self.tracer, self.name, self.aggregate = tracer, name, aggregate

    def __enter__(self):
        tr = self.tracer
        parent = tr.current
        self.merged = parent is not None and parent.name == self.name
        if self.merged:
            return parent
        if self.aggregate:
            key = (parent.id if parent else -1, self.name)
            node = tr._agg.get(key)
            if node is None:
                node = tr._agg[key] = tr._new(parent, self.name)
        else:
            node = tr._new(parent, self.name, perf_counter_ns())
        self.node = node
        tr._stack.append(node)
        self.t0 = perf_counter_ns()
        return node

    def __exit__(self, *exc):
        if self.merged:
            return False
        self.node.ns += perf_counter_ns() - self.t0
        self.node.calls += 1
        self.tracer._stack.pop()
        return False


class Lab:
    """Times library calls and counts verdicts for one run."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run one library call and add its wall time to ``busy``."""
        with self.tracer.span(name) if self.tracer else contextlib.nullcontext():
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.busy += perf_counter() - t0
        return out

    def check(self, name: str, ok: bool, detail="") -> None:
        """One verdict: the library's output agrees with the independent check."""
        self.attempted += 1
        if not ok:
            self.mismatches.append(f"{name}: {detail}")

    def known_fault(self, name: str, ok: bool) -> None:
        """A verdict that fails today because of a named fault in the program."""
        self.attempted += 1
        if not ok:
            self.failed += 1


# ---------------------------------------------------------------------------
# wrappers for layers reached only through other layers (traced runs only)


def _wrap(tracer, orig, name, counter):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with tracer.inner(name(*args) if callable(name) else name):
            if counter is not None:
                for key, n in counter(*args, **kwargs):
                    tracer.count(key, n)
            return orig(*args, **kwargs)

    return wrapper


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the library's layer entry points so inner calls appear in the trace."""

    def _patch_function(module, attr, name, counter=None):
        # the same function object is bound in every xferlab module that imported it
        orig = getattr(module, attr)
        wrapper = _wrap(tracer, orig, name, counter)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("xferlab") and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)

    def _patch_method(cls, attr, name, counter=None):
        setattr(cls, attr, _wrap(tracer, cls.__dict__[attr], name, counter))

    from xferlab import graphwalk, pathmeasure, solenoid, statespace, transferop, wavelet

    Obs = statespace.Observable

    def mul_pairs(a, b, *_):
        if isinstance(b, Obs) and a.fourier is not None:
            yield "coeff_pairs", len(a.fourier) * len(b.fourier)

    _patch_method(Obs, "__mul__", "statespace.mul", mul_pairs)
    _patch_method(Obs, "__rmul__", "statespace.mul", mul_pairs)
    _patch_method(Obs, "__call__", "statespace.call")
    for cls in (transferop.MatrixOperator, transferop.CircleRuelleOperator):
        _patch_method(cls, "apply", "transferop.apply")
        _patch_method(cls, "__post_init__", "transferop.build")
    _patch_function(transferop, "invariant_measure", "transferop.invariant_measure")
    _patch_function(pathmeasure, "conditional_expectation", "pathmeasure.conditional_expectation")

    def sampler(R, *_a, **_k):
        circle = isinstance(R, transferop.CircleRuelleOperator)
        return "pathmeasure.sample_circle" if circle else "pathmeasure.sample_finite"

    def transitions(R, root, n, count, seed):
        yield "transitions", count * (n - 1)

    _patch_function(pathmeasure, "sample_paths", sampler, transitions)

    def walks(kernel, absorbing, start, count, *_a, **_k):
        yield "walks", count

    _patch_function(pathmeasure, "simulate_absorbing", "pathmeasure.simulate_absorbing", walks)

    def paths(ens, *_a):
        yield "paths", ens.count

    _patch_method(pathmeasure.PathEnsemble, "functional_mean", "pathmeasure.functional_mean", paths)

    def checked(ens):
        yield "transitions_checked", ens.count * (ens.depth - 1)

    _patch_function(solenoid, "ensemble_compatibility_violations", "solenoid.compatibility", checked)
    _patch_function(solenoid, "support_mass", "solenoid.support_mass")
    _patch_function(wavelet, "representation_check", "wavelet.representation_check")
    _patch_function(graphwalk, "harmonic_solve", "graphwalk.harmonic_solve")
    _patch_function(graphwalk, "hitting_verification", "graphwalk.hitting_verification")
    if "xferlab.cli" in sys.modules:
        from xferlab import serialize

        for attr in ("space_from_json", "operator_from_json", "measure_from_json",
                     "observable_from_json", "filter_from_json", "angle_from_json"):
            _patch_function(serialize, attr, "serialize.load")


# ---------------------------------------------------------------------------
# per-layer metrics from the trace tree


def subtree(nodes: list[Node], root: Node) -> list[Node]:
    children: dict[int, list[Node]] = {}
    for node in nodes:
        if node.parent is not None:
            children.setdefault(node.parent, []).append(node)
    out, todo = [], [root]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(children.get(node.id, ()))
    return out


def layer_totals(nodes: list[Node], root: Node) -> dict[str, dict]:
    """Per name under ``root``: outermost inclusive ns, calls, and summed counts."""
    by_id = {n.id: n for n in nodes}
    out: dict[str, dict] = {}
    for node in subtree(nodes, root):
        if node is root:
            continue
        rec = out.setdefault(node.name, {"ns": 0, "calls": 0, "counts": {}})
        rec["calls"] += node.calls
        for k, v in node.counts.items():
            rec["counts"][k] = rec["counts"].get(k, 0) + v
        anc = by_id.get(node.parent)
        while anc is not None and anc is not root and anc.name != node.name:
            anc = by_id.get(anc.parent)
        if anc is None or anc is root:
            rec["ns"] += node.ns
    return out
