"""Span recorder that instruments k3motive from the outside.

Nothing under ``src/`` knows about it.  ``install`` replaces each public
function named in ``LAYERS`` at every place it is bound -- the module
globals of every loaded ``k3motive`` module that hold it, and the method
attributes of ``IntMatrix``, ``DeltaSet`` and ``MotiveClass`` -- with a
wrapper that opens a span while ``Recorder.active`` is true and calls
straight through otherwise.  ``uninstall`` puts the originals back.

Spans live in memory as parallel lists (name, start, end, parent).  A
layer's self time is its span's duration minus the durations of its
direct children; children never overlap, because the program is single
threaded.  Counters that need to look at the data (nnz of a sparse input,
bit lengths of a transform) run after the span has closed, inside a
``trace.count`` span of their own, so the cost of counting is charged to
no layer.
"""

from __future__ import annotations

import pickle
import sys
import time
from collections import defaultdict

COUNT_SPAN = "trace.count"
# counters that keep a maximum rather than a sum
MAX_COUNTERS = {"intlinalg.snf.max_transform_bits"}


class Recorder:
    """In-memory span store plus per-layer counters."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.sparse_inputs: set[tuple] = set()
        self.sparse_calls = 0

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @property
    def current(self) -> int:
        """The innermost open span (-1 when none is open)."""
        return self._stack[-1]

    def add_span(self, name: str, start: float, end: float,
                 parent: int) -> None:
        """Record a closed span measured elsewhere (a child process)."""
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)

    def reset(self) -> None:
        self.__init__()

    # -- aggregation ------------------------------------------------------

    def self_times(self, roots: set[int] | None = None) -> dict[str, float]:
        """Self time per span name, over the subtrees of ``roots`` (all
        spans when ``roots`` is None)."""
        n = len(self.names)
        child_total = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_total[p] += self.ends[i] - self.starts[i]
        inside = self._subtree_mask(roots)
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            if inside[i]:
                out[self.names[i]] += (self.ends[i] - self.starts[i]
                                       - child_total[i])
        return out

    def call_counts(self, roots: set[int] | None = None) -> dict[str, int]:
        inside = self._subtree_mask(roots)
        out: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            if inside[i]:
                out[name] += 1
        return out

    def covered_share(self, roots: set[int]) -> float:
        """Share of the roots' time spent in the library's layers: the self
        time of every named span below the roots.  The roots' own self time
        and the tracer's own ``trace.*`` spans count as uncovered."""
        total = sum(self.ends[r] - self.starts[r] for r in roots)
        outside = {self.names[r] for r in roots}
        covered = sum(t for name, t in self.self_times(roots).items()
                      if name not in outside
                      and not name.startswith("trace."))
        return covered / total if total > 0 else 1.0

    def _subtree_mask(self, roots):
        n = len(self.names)
        if roots is None:
            return [True] * n
        inside = [False] * n
        for i in range(n):  # parents always precede children
            inside[i] = i in roots or (self.parents[i] >= 0
                                       and inside[self.parents[i]])
        return inside

    def dump(self, path, **header) -> None:
        """Pickle every span, the counters and any ``header`` fields to
        ``path``, followed by the clock reading when that is done.  (Pickle,
        because a CLI child hands its spans over this way, and JSON took
        ten times as long.)"""
        doc = dict(header, names=self.names, parents=self.parents,
                   starts=self.starts, ends=self.ends,
                   counters=dict(self.counters),
                   sparse_calls=self.sparse_calls,
                   sparse_inputs=self.sparse_inputs)
        with open(path, "wb") as fh:
            pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(time.perf_counter(), fh)

    def load_child(self, path, launched: float, offset: float,
                   returned: float, parent: int) -> None:
        """Append the spans a child process dumped, under ``parent``.

        ``launched`` and ``returned`` bracket the child on this process's
        clock, and ``offset`` is ``time.time() - time.perf_counter()`` here;
        the child's header carries its own ``t0``, ``dumped`` and
        ``offset``, which map its clock onto ours.  The gap from launch to
        the child's first statement becomes a ``cli.spawn`` span, the
        child's dump a ``trace.dump`` span, and the rest up to its return a
        ``cli.exit`` span.  The child's counters are added to this
        recorder's.
        """
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
            written = pickle.load(fh)
        shift = doc["offset"] - offset
        self.add_span("cli.spawn", launched, doc["t0"] + shift, parent)
        base = len(self.names)
        self.names.extend(doc["names"])
        self.parents.extend(base + p if p >= 0 else parent
                            for p in doc["parents"])
        self.starts.extend(t + shift for t in doc["starts"])
        self.ends.extend(t + shift for t in doc["ends"])
        self.add_span("trace.dump", doc["dumped"] + shift, written + shift,
                      parent)
        self.add_span("cli.exit", written + shift, returned, parent)
        for key, value in doc["counters"].items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.sparse_calls += doc["sparse_calls"]
        self.sparse_inputs.update(doc["sparse_inputs"])


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

# layer name -> functions, as (module, attribute) or (module, class, method)
LAYERS = {
    "intlinalg.kernel": [("intlinalg", "kernel_basis")],
    "intlinalg.rank": [("intlinalg", "rank"),
                       ("intlinalg", "rank_and_invariants"),
                       ("intlinalg", "invariant_factors"),
                       ("intlinalg", "cokernel_structure")],
    "intlinalg.snf": [("intlinalg", "smith_normal_form")],
    "intlinalg.det": [("intlinalg", "det"),
                      ("intlinalg", "gram_determinant")],
    "intlinalg.intmatrix": [("intlinalg", "IntMatrix", "__init__")],
    "intlinalg.matmul": [("intlinalg", "IntMatrix", "__matmul__")],
    "deltaset.boundary_matrix": [("deltaset", "DeltaSet", "boundary_matrix")],
    "deltaset.homology": [("deltaset", "homology")],
    "deltaset.recognize": [("deltaset", "recognize")],
    "deltaset.top_cycle": [("deltaset", "top_cycle_generator")],
    "deltaset.quotient": [("deltaset", "quotient_by_involution")],
    "deltaset.refine": [("deltaset", "refine_barycentric"),
                        ("deltaset", "refine_edge_split")],
    "fibers.validate": [("fibers", "validate")],
    "fibers.clemens_polytope": [("fibers", "clemens_polytope")],
    "fibers.degeneration_type": [("fibers", "degeneration_type")],
    "fibers.strata_classes": [("fibers", "strata_classes")],
    "weightss.monodromy_gram": [("weightss", "monodromy_gram")],
    "integrals.verify_fiber": [("integrals", "verify_fiber")],
    "integrals.fiber_params": [("integrals", "fiber_params")],
    "integrals.neron": [("integrals", "integral_from_neron")],
    "builders.torus_negation": [("builders", "torus_negation")],
    "builders.build_kummer": [("builders", "build_kummer")],
    "builders.build_type3": [("builders", "build_type3")],
    "motives.class_ops": [("motives", "MotiveClass", m) for m in
                          ("__add__", "__sub__", "__neg__", "__mul__",
                           "__rmul__", "twist")],
    "motives.realize": [("motives", "MotiveClass", m) for m in
                        ("e_polynomial", "serre_reduce",
                         "euler_characteristic")],
    "serialize.decode": [("serialize", n) for n in
                         ("fiber_from_json", "neron_from_json",
                          "motive_from_json", "matrix_from_json",
                          "delta_from_json")],
    "serialize.encode": [("serialize", n) for n in
                         ("fiber_to_json", "neron_to_json", "motive_to_json",
                          "matrix_to_json", "smith_to_json", "delta_to_json",
                          "dumps")],
    "cli.main": [("cli", "main")],
}

SPARSE_ENGINE = {"rank", "rank_and_invariants", "invariant_factors",
                 "kernel_basis"}


def _count_sparse(rec, args, out):
    a = args[0]
    rec.counters["intlinalg.sparse.cells_in"] += a.rows * a.cols
    rec.counters["intlinalg.sparse.nnz_in"] += sum(
        1 for row in a.iter_rows() for x in row if x)
    rec.sparse_calls += 1
    rec.sparse_inputs.add((a.rows, a.cols, hash(a)))


def _count_snf(rec, args, out):
    bits = max((abs(x).bit_length() for m in (out.U, out.V) for x in m.flat()),
               default=0)
    key = "intlinalg.snf.max_transform_bits"
    rec.counters[key] = max(rec.counters[key], bits)


def _count_intmatrix(rec, args, out):
    rec.counters["intlinalg.intmatrix.cells_built"] += args[0].rows * args[0].cols


def _count_matmul(rec, args, out):
    a, b = args
    rec.counters["intlinalg.matmul.mults"] += a.rows * a.cols * b.cols


def _count_quotient(rec, args, out):
    rec.counters["deltaset.quotient.orbit_triangles"] += out.n(2)


def _counter_for(layer, attr):
    if layer in ("intlinalg.rank", "intlinalg.kernel") and attr in SPARSE_ENGINE:
        return _count_sparse
    return {"intlinalg.snf": _count_snf,
            "intlinalg.intmatrix": _count_intmatrix,
            "intlinalg.matmul": _count_matmul,
            "deltaset.quotient": _count_quotient}.get(layer)


def wrap(fn, layer: str, rec: Recorder, count=None):
    """``fn`` with a ``layer`` span around each call made while recording."""
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        i = rec.open(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None:
            j = rec.open(COUNT_SPAN)
            count(rec, args, out)
            rec.close(j)
        return out
    wrapper.__name__ = getattr(fn, "__name__", layer)
    wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
    wrapper.__doc__ = fn.__doc__
    return wrapper


class Installation:
    """The wrappers ``install`` put in place, so they can be taken out."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every function in ``LAYERS`` at each of its binding sites."""
    import k3motive.cli  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "k3motive"
                                     or name.startswith("k3motive."))]
    inst = Installation()
    wrapped: dict[int, object] = {}
    for layer, targets in LAYERS.items():
        for target in targets:
            module = sys.modules["k3motive." + target[0]]
            if len(target) == 3:
                owner = getattr(module, target[1])
                attr = target[2]
                original = owner.__dict__[attr]
                new = wrapped.setdefault(id(original), wrap(
                    original, layer, rec, _counter_for(layer, attr)))
                inst.patched.append((owner, attr, original))
                setattr(owner, attr, new)
                continue
            attr = target[1]
            original = getattr(module, attr)
            new = wrapped.setdefault(id(original), wrap(
                original, layer, rec, _counter_for(layer, attr)))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        inst.patched.append((mod, name, original))
                        setattr(mod, name, new)
    return inst
