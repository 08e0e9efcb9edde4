"""Spans around the library's layers, recorded from outside the library.

:class:`Tracer` replaces a function at the binding its caller looks up
(``flowssm.model.integrate_flow``, not only ``flowssm.flow.integrate_flow``)
with a wrapper that records a span: name, start, end and the index of the
enclosing span. Spans stay in memory until :meth:`Tracer.dump`. Counters
(rows, points, pairs, evaluations) are recorded at the same boundaries.
:func:`install` wraps every layer the benchmark reports; :meth:`uninstall`
restores the original bindings.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

SPAN_CAPACITY = 1 << 18  # a traced round records about 11 000 spans


class Tracer:
    """Spans in arrays allocated once, up front.

    A span list that grows during the round puts the tracer's own buffers at
    the top of the heap, where they keep glibc from trimming it: a traced
    sparse round then took 7.5 M page faults instead of the untraced 14.5 M
    and ran 20% faster than untraced, so the trace misstated the very cost
    it should show.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = np.zeros(SPAN_CAPACITY, dtype=np.int32)
        self.start = np.zeros(SPAN_CAPACITY)
        self.end = np.zeros(SPAN_CAPACITY)
        self.parent = np.zeros(SPAN_CAPACITY, dtype=np.int32)
        self.n = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._tape_rows: dict[int, int] = {}

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        i = self.n
        if i == len(self.start):
            raise RuntimeError(f"more than {i} spans")
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name[i] = name_id
        self.parent[i] = self._stack[-1] if self._stack else -1
        self._stack.append(i)
        self.n = i + 1
        self.start[i] = time.perf_counter()
        return i

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[self.name[index]]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr``; ``after(args, kwargs, result)``
        runs once the span has closed, to record counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count_calls(self, owner, attr: str, calls: str, hits: str) -> None:
        """Count calls of ``owner.attr`` and how many returned true, without a
        span: the function is small and called very often."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[calls] += 1
            counts[hits] += bool(result)
            return result

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ derived

    def _rows(self, first: int):
        """(name, start, end, parent) of the spans from ``first`` on."""
        return zip(range(first, self.n), (self.names[k] for k in self.name[first:self.n]),
                   self.start[first:self.n].tolist(), self.end[first:self.n].tolist(),
                   self.parent[first:self.n].tolist())

    def duration(self, index: int) -> float:
        return float(self.end[index] - self.start[index])

    def totals(self, first: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name, over spans from ``first``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        rows = list(self._rows(first))
        for _, _, start, end, parent in rows:
            child_time[parent] += end - start
        for i, name, start, end, _ in rows:
            inclusive[name] += end - start
            own[name] += end - start - child_time[i]
        return inclusive, own

    def nested_in(self, inner: str, outer: str, first: int = 0) -> float:
        """Seconds of ``inner`` spans whose nearest enclosing span is ``outer``."""
        return sum(end - start for _, name, start, end, parent in self._rows(first)
                   if name == inner and parent >= 0
                   and self.names[self.name[parent]] == outer)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [[name, start, end, parent] for _, name, start, end, parent in self._rows(0)]
        payload = {"fields": ["name", "start", "end", "parent"], "spans": spans,
                   "counts": dict(self.counts)}
        path.write_text(json.dumps(payload, separators=(",", ":")))

    # ------------------------------------------------------------ tape

    def note_flow_rows(self, rows: int) -> None:
        """Remember the largest point-row count flowed under the active tape."""
        from flowssm import autodiff

        if autodiff._ACTIVE_TAPES:
            key = id(autodiff._ACTIVE_TAPES[-1])
            self._tape_rows[key] = max(self._tape_rows.get(key, 0), rows)

    def note_backward(self, args, kwargs) -> None:
        """Tape size of one backward: nodes, and owned output bytes per row."""
        from flowssm import autodiff

        tape = args[1] if len(args) > 1 else kwargs.get("tape")
        tape = tape if tape is not None else autodiff._ACTIVE_TAPES[-1]
        self.counts["autodiff.backwards"] += 1
        self.counts["autodiff.tape_nodes_total"] += len(tape.nodes)
        rows = self._tape_rows.pop(id(tape), 0)
        if rows:
            # views (reshape) share their base's memory; count owners only
            nbytes = sum(n.output.data.nbytes for n in tape.nodes
                         if n.output.data.flags.owndata)
            per_row = nbytes / rows
            key = "autodiff.tape_bytes_per_row_peak"
            self.counts[key] = max(self.counts[key], per_row)


class _TimedTree:
    """A cKDTree whose queries are spans too."""

    def __init__(self, tracer: Tracer, tree, name: str):
        self._tracer, self._tree, self._name = tracer, tree, name

    def query(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._tree.query(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from flowssm import autodiff, evaluation, flow, latents, mesh, synthetic
    from flowssm import model as fm
    from flowssm.mesh import distance, intersection, sampling

    def forward_rows(args, kwargs, result):
        tracer.counts["flow.forward_rows"] += result.data.shape[0]

    def flow_rows(args, kwargs, result):
        x0 = args[1] if len(args) > 1 else kwargs["x0"]
        rows = (x0.points if hasattr(x0, "points") else getattr(x0, "data", x0)).shape[0]
        tracer.note_flow_rows(rows)

    def sampled_points(args, kwargs, result):
        tracer.counts["mesh.sampling.points"] += len(result.points)

    def lbfgs_evals(args, kwargs, result):
        tracer.counts["model.lbfgs_evals"] += result.nfev

    tracer.wrap(flow.ImNetMlp, "forward", "flow.forward", forward_rows)
    for owner in (flow, latents, fm):
        tracer.wrap(owner, "integrate_flow", "flow.integrate", flow_rows)
    tracer.wrap(autodiff, "backward", "autodiff.backward",
                lambda args, kwargs, result: tracer.note_backward(args, kwargs))
    tracer.wrap(autodiff.Adam, "step", "autodiff.adam")
    for owner in (latents, fm):
        tracer.wrap(owner, "rbf_weights", "latents.rbf_weights")
    tracer.wrap(fm, "compose_deformers", "latents.compose_deformers")
    tracer.wrap(fm, "train", "model.train")
    tracer.wrap(fm, "add_local_stage", "model.add_local_stage")
    tracer.wrap(fm, "minimize", "model.lbfgs", lbfgs_evals)
    for owner in (fm, evaluation):
        tracer.wrap(owner, "fit_latent", "model.fit_latent")

    make_tree = fm.cKDTree

    def timed_tree(*args, **kwargs):
        with tracer.span("model.chamfer_nn"):
            tree = make_tree(*args, **kwargs)
        return _TimedTree(tracer, tree, "model.chamfer_nn")

    fm.cKDTree = timed_tree
    tracer._undo.append((fm, "cKDTree", make_tree))

    for owner in (sampling, mesh, fm, evaluation, distance, synthetic):
        tracer.wrap(owner, "sample_surface", "mesh.sampling.sample", sampled_points)
    for owner in (distance, mesh, evaluation):
        tracer.wrap(owner, "average_symmetric_surface_distance", "mesh.distance.assd")
    for owner in (mesh, evaluation):
        tracer.wrap(owner, "count_self_intersections", "mesh.intersection.count")
    tracer.count_calls(intersection, "triangles_intersect",
                       "mesh.intersection.pairs_tested", "mesh.intersection.pairs_intersecting")
    tracer.wrap(evaluation, "sample_shape", "evaluation.decode")
    tracer.wrap(evaluation, "evaluate_generality", "evaluation.generality")
    tracer.wrap(evaluation, "evaluate_specificity", "evaluation.specificity")
    tracer.wrap(fm, "load_model", "checkpoint.load")
    tracer.wrap(synthetic, "generate_family", "synthetic.generate")
