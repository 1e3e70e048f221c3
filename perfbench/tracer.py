"""Tracing from outside the library: wrap public names, keep spans in memory.

A :class:`Tracer` replaces each traced name wherever the library looks it
up (the defining module, every ``quiver_regrade`` module that imported it by
name, and class attributes for methods) and restores the originals on
:meth:`Tracer.uninstall`.  Two kinds of wrapper:

* a *span* records (name, parent, start, end) and adds its duration to the
  parent's child time, so a layer's self time is its span time minus the
  time of its traced children;
* a *leaf* is for names called hundreds of thousands of times per pass
  (``Matrix.mul``, ``PathSum.make``): it only adds to aggregate counters.

Time the wrappers spend computing counters is charged to nobody's self time.
A name that no longer exists is reported in :attr:`Tracer.absent`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from layers import VERIFY_PROPERTIES

PACKAGE = "quiver_regrade"


class _Frame:
    __slots__ = ("name", "span", "child", "give_back", "pull")

    def __init__(self, name: str, span: int):
        self.name = name
        self.span = span
        self.child = 0.0  # time covered by traced children
        self.give_back = 0.0  # own time that belongs to the caller (row generation)
        self.pull: _Pull | None = None  # set on rank_of_rows frames


class _Pull:
    """Iterator over the rows a rank call consumes.

    The rows are generated lazily by the caller (``graded_dim``); time spent
    producing them is returned to the caller's self time, and rows and
    nonzeros are counted for the density and useful-row figures.
    """

    def __init__(self, frame: _Frame, rows):
        self.frame = frame
        self.it = iter(rows)
        self.rows = 0
        self.nonzeros = 0

    def __iter__(self):
        return self

    def __next__(self):
        frame = self.frame
        before = frame.child
        t0 = perf_counter()
        try:
            row = next(self.it)
        finally:
            t1 = perf_counter()
            pulled = t1 - t0
            frame.give_back += pulled - (frame.child - before)
            frame.child = before + pulled
        self.rows += 1
        self.nonzeros += sum(map(bool, row))
        frame.child += perf_counter() - t1
        return row


def _module(name: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return None


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.stack = [_Frame("<root>", -1)]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_paths: set = set()
        # spans: parallel arrays, written out by dump()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.op = 0
        self.sp_op = array("i")

    # -- op boundaries -------------------------------------------------------

    def begin_op(self):
        """Start a new benchmark op: resets the repeat-key memory."""
        self.op += 1
        self._seen_paths.clear()

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, count=None, pre=None):
        nid = self._name_id(name)
        stack = self.stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(self.sp_start)
            self.sp_name.append(nid)
            self.sp_parent.append(parent.span)
            self.sp_op.append(self.op)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
            frame = _Frame(name, sid)
            stack.append(frame)
            if pre is not None:
                args, kwargs = pre(self, frame, args, kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.sp_start[sid] = t0
                self.sp_end[sid] = t1
                calls[name] += 1
                self_s[name] += dur - frame.child
                total_s[name] += dur
                parent.child += dur - frame.give_back
            if count is not None:
                count(self, frame, parent, args, kwargs, result)
                parent.child += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn, count=None):
        stack = self.stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - t0
            calls[name] += 1
            self_s[name] += dur
            total_s[name] += dur
            stack[-1].child += dur
            if count is not None:
                t1 = perf_counter()
                count(self, args, result)
                stack[-1].child += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, metric: str, kind="span", **hooks):
        """Wrap ``module.attr`` and every same-object alias in the package."""
        mod = _module(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.absent.append(metric)
            return
        make = self.span if kind == "span" else self.leaf
        wrapped = make(metric, original, **hooks)
        for name, m in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)

    def wrap_method(self, module: str, cls: str, attr: str, metric: str, kind="span", **hooks):
        owner = getattr(_module(module), cls, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            self.absent.append(metric)
            return
        make = self.span if kind == "span" else self.leaf
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(metric, raw.__func__, **hooks)))
        else:
            self._set(owner, attr, make(metric, raw, **hooks))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.sp_start)):
                fh.write(json.dumps([
                    i, self.sp_parent[i], self.sp_name[i], self.sp_op[i],
                    round(self.sp_start[i], 7), round(self.sp_end[i], 7),
                ]) + "\n")
        return len(self.sp_start)


# ---------------------------------------------------------------------------
# counters for the layer names the benchmark traces


def _rank_pre(tracer, frame, args, kwargs):
    pull = frame.pull = _Pull(frame, _arg(args, kwargs, 1, "rows"))
    if len(args) > 1:
        args = (args[0], pull) + tuple(args[2:])
    else:
        kwargs = dict(kwargs, rows=pull)
    return args, kwargs


def _rank_count(tracer, frame, parent, args, kwargs, result):
    pull = frame.pull
    ncols = _arg(args, kwargs, 2, "ncols")
    c = tracer.counts
    c["linalg.rank_of_rows.rows_in"] += pull.rows
    c["linalg.rank_of_rows.rank_out"] += result
    c["linalg.rank_of_rows.nonzeros"] += pull.nonzeros
    c["linalg.rank_of_rows.cells"] += pull.rows * ncols
    if parent.name == "hilbert.graded_dim":
        c["hilbert.graded_dim.basis_cols"] += ncols
        c["hilbert.graded_dim.rows"] += pull.rows


def _enumerate_count(tracer, frame, parent, args, kwargs, result):
    c = tracer.counts
    c["paths.enumerate_paths.paths_out"] += len(result)
    key = (
        _arg(args, kwargs, 0, "q"),
        _arg(args, kwargs, 1, "degree"),
        _arg(args, kwargs, 2, "source"),
        _arg(args, kwargs, 3, "target"),
    )
    if key in tracer._seen_paths:
        c["paths.enumerate_paths.repeats"] += 1
    else:
        tracer._seen_paths.add(key)


def _rewrite_count(tracer, frame, parent, args, kwargs, result):
    before = _arg(args, kwargs, 1, "ideal")
    c = tracer.counts
    c["regrade.rewrite_ideal.gens_in"] += len(before)
    c["regrade.rewrite_ideal.gens_changed"] += sum(
        1 for old, new in zip(before, result) if old.sum.terms != new.sum.terms
    )


def _parse_count(tracer, frame, parent, args, kwargs, result):
    tracer.counts["fileformat.parse_presentation.bytes"] += len(
        _arg(args, kwargs, 0, "text").encode()
    )


def _serialize_count(tracer, frame, parent, args, kwargs, result):
    tracer.counts["fileformat.serialize_presentation.bytes"] += len(result.encode())


def _morphism_count(tracer, frame, parent, args, kwargs, result):
    src, tgt = _arg(args, kwargs, 1, "source"), _arg(args, kwargs, 2, "target")
    tracer.counts["randomgen.random_morphism.nvars"] += sum(
        src.dims[s] * tgt.dims[s] for s in set(src.dims) & set(tgt.dims)
    )


def _rref_count(tracer, frame, parent, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    tracer.counts["linalg.rref.cells"] += m.rows * m.cols


def _nullspace_count(tracer, frame, parent, args, kwargs, result):
    if parent.name == "randomgen.random_morphism":
        tracer.counts["randomgen.random_morphism.equations"] += _arg(args, kwargs, 0, "m").rows


def _mul_count(tracer, args, result):
    left, right = args[0], args[1]
    tracer.counts["linalg.Matrix.mul.mults"] += left.rows * left.cols * right.cols


def install_all(tracer: Tracer):
    """Wrap every layer name the benchmark reports per-layer metrics for."""
    f = tracer.wrap_function
    f("hilbert", "graded_dim", "hilbert.graded_dim")
    f("linalg", "rank_of_rows", "linalg.rank_of_rows", pre=_rank_pre, count=_rank_count)
    f("paths", "enumerate_paths", "paths.enumerate_paths", count=_enumerate_count)
    f("regrade", "split_arrow", "regrade.split_arrow")
    f("regrade", "rewrite_ideal", "regrade.rewrite_ideal", count=_rewrite_count)
    f("fileformat", "parse_presentation", "fileformat.parse_presentation", count=_parse_count)
    f("fileformat", "serialize_presentation", "fileformat.serialize_presentation",
      count=_serialize_count)
    f("randomgen", "random_morphism", "randomgen.random_morphism", count=_morphism_count)
    f("randomgen", "random_rep", "randomgen.random_rep")
    f("linalg", "rref", "linalg.rref", count=_rref_count)
    f("linalg", "nullspace", "linalg.nullspace", count=_nullspace_count)
    for name in ("expand_rep", "collapse_rep", "counit", "morphism_kernel", "morphism_cokernel"):
        f("representation", name, f"representation.{name}")
    for prop in VERIFY_PROPERTIES:
        f("verify", f"prop_{prop}", f"verify.{prop}")
    m = tracer.wrap_method
    m("paths", "PathSum", "make", "paths.PathSum.make", kind="leaf")
    m("linalg", "Matrix", "mul", "linalg.Matrix.mul", kind="leaf", count=_mul_count)
    # the commuting-square check runs in the dataclass constructor hook
    m("representation", "GradedMorphism", "__post_init__", "representation.GradedMorphism.check")
