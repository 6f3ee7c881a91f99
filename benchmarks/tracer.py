"""Outside-in tracing of diskfloer's layers.

The tracer wraps public functions of the engine's modules from the outside:
each name is patched in the module that defines it and in every diskfloer
module that imported it by name, and methods are patched on their class.
Every original is restored on exit.  Spans are kept in compact arrays as
(name, start, end, parent, request id) and written out when the run ends.
Sizes the per-layer metrics need (matrix density, connected blocks,
distinct inputs) are computed between requests, outside every timed span.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute or Class.method, span name).  Several methods may share
# one span name.  torus_algebra.basis_multiply is only counted: it is called
# hundreds of thousands of times per run and a span around it would cost
# more than the call.
SPANS = (
    ("diskfloer.pipeline", "distinguish", "pipeline.distinguish"),
    ("diskfloer.pipeline", "stab_bound", "pipeline.stab_bound"),
    ("diskfloer.pipeline", "find_distinguished_generator",
     "pipeline.find_distinguished_generator"),
    ("diskfloer.pairing", "box_tensor", "pairing.box_tensor"),
    ("diskfloer.pairing", "induced_map", "pairing.induced_map"),
    ("diskfloer.pairing", "match_family", "pairing.match_family"),
    ("diskfloer.linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("diskfloer.linalg", "u_solve", "linalg.u_solve"),
    ("diskfloer.linalg", "u_homology", "linalg.u_homology"),
    ("diskfloer.linalg", "u_torsion_order", "linalg.u_torsion_order"),
    ("diskfloer.linalg", "f2_homology", "linalg.f2_homology"),
    ("diskfloer.linalg", "UMatrix.apply", "linalg.UMatrix.apply"),
    ("diskfloer.linalg", "UMatrix.matmul", "linalg.UMatrix.matmul"),
    ("diskfloer.structures", "TypeAStructure.lookup", "structures.lookup"),
    ("diskfloer.structures", "TypeAStructure.validate", "structures.validate"),
    ("diskfloer.structures", "morphism_space", "structures.morphism_space"),
    ("diskfloer.structures", "TypeAStructure.check_valid", "structures.check_valid"),
    ("diskfloer.structures", "TypeDStructure.check_valid", "structures.check_valid"),
    ("diskfloer.structures", "TypeDMorphism.check_valid", "structures.check_valid"),
    ("diskfloer.cfk", "build_cfd", "cfk.build_cfd"),
)
COUNTS = (
    ("diskfloer.torus_algebra", "basis_multiply", "torus_algebra.basis_multiply"),
)
REQUEST = "request"


def _nonzeros(m) -> List[Tuple[int, int]]:
    """Positions of the nonzero entries of a dense matrix over F2[U]."""
    return [(i, j) for i, row in enumerate(m.entries) for j, e in enumerate(row) if e]


def largest_block(rows: int, cols: int, nonzeros) -> int:
    """Largest connected block of a matrix: generators joined by nonzero
    entries.  A square matrix is a differential, so row i and column i are
    one generator; otherwise rows and columns are separate vertices."""
    square = rows == cols
    parent = list(range(rows if square else rows + cols))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in nonzeros:
        a, b = find(i), find(j if square else rows + j)
        if a != b:
            parent[a] = b
    sizes: Dict[int, int] = defaultdict(int)
    for v in range(len(parent)):
        sizes[find(v)] += 1
    return max(sizes.values(), default=0)


def _structure_key(obj) -> Tuple:
    """Content of a type A or type D structure, for counting distinct
    inputs."""
    if hasattr(obj, "ops"):
        return ("A", obj.ring, tuple(obj.generator_order),
                tuple(sorted(obj.gen_info[g].idempotent for g in obj.generator_order)),
                tuple(obj.ops), tuple(obj.families))
    return ("D", tuple(obj.generator_order),
            tuple(obj.idempotents[g] for g in obj.generator_order), tuple(obj.edges))


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.outer = array("b")   # 1 when no enclosing span has the same name
        self._stack: List[int] = []
        self._depth: Dict[int, int] = defaultdict(int)
        self.request = -1
        self.counts: Dict[str, int] = defaultdict(int)
        self.sizes: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._captured: Dict[str, list] = defaultdict(list)
        self._restore: List[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.outer.append(0 if self._depth[nid] else 1)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_ids[idx]] -= 1

    @contextmanager
    def span_request(self, index: int):
        """The root span of one request."""
        self.request = index
        idx = self.open(self._id(REQUEST))
        try:
            yield
        finally:
            self.close(idx)
            self.request = -1

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = sys.modules.get(module)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or (method not in vars(owner)):
            self.missing.append(f"{module}.{attr}")
            return
        original = vars(owner)[method]
        wrapper = make(original)
        if owner_name:
            setattr(owner, method, wrapper)
            self._restore.append(lambda: setattr(owner, method, original))
            return
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "diskfloer" or name.startswith("diskfloer.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
                    self._restore.append(
                        lambda o=other, k=key: setattr(o, k, original))

    @contextmanager
    def patched(self):
        hooks = {
            "linalg.smith_normal_form": self._on_snf,
            "linalg.f2_homology": self._on_f2,
            "pairing.box_tensor": self._on_box,
            "structures.lookup": self._on_lookup,
            "cfk.build_cfd": self._on_cfd,
        }
        try:
            for module, attr, name in SPANS:
                self._patch(module, attr,
                            lambda fn, n=name: self._wrap(fn, n, hooks.get(n)))
            for module, attr, name in COUNTS:
                self._patch(module, attr, lambda fn, n=name: self._count(fn, n))
            yield self
        finally:
            while self._restore:
                self._restore.pop()()

    # -- size hooks (run after the span closed) -----------------------------

    def _on_snf(self, args, kwargs, result) -> None:
        self._captured["snf"].append(args[0] if args else kwargs["m"])

    def _on_f2(self, args, kwargs, result) -> None:
        d = args[0] if args else kwargs.get("d")
        dim = max(d.rows, d.cols) if d is not None else kwargs.get("dim", 0)
        self.sizes["linalg.f2_homology.max_dim"] = max(
            self.sizes["linalg.f2_homology.max_dim"], dim)

    def _on_box(self, args, kwargs, result) -> None:
        preserving = args[2] if len(args) > 2 else kwargs.get("preserving_only", False)
        self._captured["box"].append((args[0], args[1], preserving, result))

    def _on_lookup(self, args, kwargs, result) -> None:
        if result:
            self.counts["structures.lookup.hits"] += 1

    def _on_cfd(self, args, kwargs, result) -> None:
        self.sizes["cfk.build_cfd.generators"] += len(result.generator_order)

    def end_request(self) -> None:
        """Sizes of the request's SNF inputs and box tensors; drops the
        references taken during the request."""
        c, s = self.counts, self.sizes
        seen = set()
        for m in self._captured.pop("snf", []):
            nz = _nonzeros(m)
            s["snf.nnz"] += len(nz)
            s["snf.cells"] += m.rows * m.cols
            s["linalg.smith_normal_form.max_dim"] = max(
                s["linalg.smith_normal_form.max_dim"], m.rows, m.cols)
            s["linalg.smith_normal_form.block_max"] = max(
                s["linalg.smith_normal_form.block_max"], largest_block(m.rows, m.cols, nz))
            seen.add((m.rows, m.cols, tuple(map(tuple, m.entries))))
        c["snf.distinct"] += len(seen)
        seen = set()
        for m, n, preserving, box in self._captured.pop("box", []):
            s["pairing.box_tensor.generators"] += len(box.generators)
            s["pairing.box_tensor.nnz"] += len(_nonzeros(box.d))
            seen.add((_structure_key(m), _structure_key(n), bool(preserving)))
        c["box.distinct"] += len(seen)

    # -- results -------------------------------------------------------------

    def child_durations(self) -> array:
        """Per span, the summed duration of its direct children."""
        child = array("d", bytes(8 * len(self.starts)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return child

    def summary(self) -> Dict[str, Any]:
        """Per-name totals: calls, busy seconds (outermost spans of the name)
        and self seconds (duration minus direct children)."""
        child = self.child_durations()
        calls: Dict[str, int] = defaultdict(int)
        busy: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for i in range(len(self.starts)):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            if self.outer[i]:
                busy[name] += dur
            self_s[name] += dur - child[i]
        return {"calls": calls, "busy": busy, "self": self_s}

    def write(self, path) -> None:
        """All spans as gzip'd CSV: name,start,end,parent,request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,request\n")
            names, ids, starts, ends = self.names, self.name_ids, self.starts, self.ends
            parents, requests = self.parents, self.requests
            fh.writelines(
                f"{names[ids[i]]},{starts[i]:.9f},{ends[i]:.9f},{parents[i]},{requests[i]}\n"
                for i in range(len(starts)))
