"""Spans around the calls into each layer of the library.

Tracing wraps, from outside the library, every module attribute that
binds one of the traced functions (``oracle`` binds ``hnf`` from
``exactnum``, ``cli`` binds ``apply`` and ``validate`` from ``endokit``,
and the package binds most names again), so calls between modules and
calls inside one module are both seen.  Spans live in flat arrays until the run ends; a span's self time
is its duration minus the durations of its direct children, which never
overlap because the benchmark runs on one thread.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

LAYERS = {
    "cli": ("parse", "run", "serialize"),
    "endokit": ("validate", "apply", "classify", "add", "compose", "is_finitary"),
    "groupkit": ("invariants", "truncate"),
    "inertia": ("is_inertial", "decompose", "is_uniform", "ui_class_in_H"),
    "exactnum": ("hnf", "snf", "solve_in_rowspace", "kernel_left"),
    "oracle": ("index_in_sum", "naive_index_in_sum", "inertness_profile",
               "fs_profile", "sample_subgroups", "truncate_endo",
               "witness_search", "enumerate_subgroups"),
    "linmap": ("scalar_defect", "max_inert_codim", "enumerate_subspaces",
               "growth_bound_check"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)


class Tracer:
    """Records spans while ``op`` is set to an operation number."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op = -1          # the operation being traced, -1 when idle
        self.ops = 0
        self.counts = dict.fromkeys(("Element", "FiniteLattice", "hnf_rows",
                                     "subgroups", "searches", "found",
                                     "levels", "report_bytes"), 0)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from abinertia import groupkit, oracle
        modules = [m for n, m in sys.modules.items()
                   if n == "abinertia" or n.startswith("abinertia.")]
        for idx, label in enumerate(SPAN_NAMES):
            mod, fn = label.split(".")
            orig = getattr(sys.modules[f"abinertia.{mod}"], fn)
            wrapped = self._wrap(idx, orig, label)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapped)
        for cls, key in ((groupkit.Element, "Element"),
                         (oracle.FiniteLattice, "FiniteLattice")):
            self._patch(cls, "__init__", self._counted(cls.__init__, key))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def _patch(self, owner, attr: str, val) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, val)

    def _counted(self, init, key: str):
        counts = self.counts
        tracer = self

        def __init__(*args, **kwargs):
            if tracer.op >= 0:
                counts[key] += 1
            init(*args, **kwargs)
        return __init__

    def _wrap(self, idx: int, fn, label: str):
        tr = self
        counts = self.counts
        hnf = label == "exactnum.hnf"
        post = {"oracle.enumerate_subgroups": self._on_enumerate,
                "oracle.witness_search": self._on_witness,
                "cli.run": self._on_report}.get(label)
        levels = label == "oracle.inertness_profile"

        def traced(*args, **kwargs):
            if tr.op < 0:
                return fn(*args, **kwargs)
            if hnf:
                rows = list(args[0])
                counts["hnf_rows"] = max(counts["hnf_rows"], len(rows))
                args = (rows, *args[1:])
            if levels:
                counts["levels"] += len(args[2] if len(args) > 2 else kwargs["levels"])
            sid = len(tr.start)
            tr.name.append(idx)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op_of.append(tr.op)
            tr.end.append(0)
            tr.stack.append(sid)
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[sid] = perf_counter_ns()
                tr.stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def _on_enumerate(self, result) -> None:
        self.counts["subgroups"] += len(result)

    def _on_report(self, result) -> None:
        self.counts["report_bytes"] += len(result[1].encode())

    def _on_witness(self, result) -> None:
        self.counts["searches"] += 1
        self.counts["found"] += result is not None

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures, per traced operation where they are totals."""
        n = len(self.start)
        child = [0] * n
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - child[i]
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for k, label in enumerate(SPAN_NAMES):
            out[f"{label}.calls"] = (calls[k] / ops, "count/op")
            out[f"{label}.self_s"] = (self_ns[k] / 1e9 / ops, "s/op")
        c = self.counts
        sample_calls = calls[SPAN_NAMES.index("oracle.sample_subgroups")]
        out["groupkit.Element.init.calls"] = (c["Element"] / ops, "count/op")
        out["oracle.FiniteLattice.init.calls"] = (c["FiniteLattice"] / ops, "count/op")
        out["exactnum.hnf.max_rows"] = (c["hnf_rows"], "rows")
        out["oracle.enumerate_subgroups.subgroups"] = (c["subgroups"] / ops, "count/op")
        out["oracle.witness_search.found_ratio"] = (
            c["found"] / c["searches"] if c["searches"] else 0.0, "ratio")
        out["oracle.sample_cache.hit_ratio"] = (
            1 - sample_calls / c["levels"] if c["levels"] else 0.0, "ratio")
        out["cli.report_bytes"] = (c["report_bytes"] / ops, "B/op")
        return out

    def write(self, path) -> None:
        """All spans as CSV: id, name, start and end (ns), parent id, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{SPAN_NAMES[self.name[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.op_of[i]}\n")
