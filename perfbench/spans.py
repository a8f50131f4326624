"""Spans around calls into the engine's layers, recorded from outside.

The traced sweep wraps the engine's public functions where the engine looks
them up (a name imported into several modules is replaced in each), keeps
every span in memory, and folds them into per-layer self times when the run
ends.  Nothing inside ``src/`` is changed.

A span records its name, layer, start, end, and the span that caused it.
A layer's self time is the span's duration minus the part of that interval
its child spans cover.  The self time of a root span (the timed call
itself) is kept apart as ``unattributed``: it is whatever no hooked function
covers, so a hook that no longer matches, or work the engine does inline,
shows there instead of in a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("data", "noise", "kernel", "fold", "metrics", "exec")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the recorder, -1 for a root
    tag: str  # the variant whose timed call ran this span ("" outside one)
    mb: float = 0.0  # megabytes of noise drawn (computed from array sizes)
    count: int = 0  # tiles folded / chunk results merged


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted twice."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


class SpanRecorder:
    """Keeps spans in memory; ``wrap`` makes a function record one per call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.tag = ""
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, layer: str,
             measure: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, recorder.clock(), 0.0,
                        recorder._stack[-1] if recorder._stack else -1,
                        recorder.tag)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder._stack.pop()
                span.end = recorder.clock()
            if measure is not None:
                measure(span, args, kwargs, out)
            return out

        return traced

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span (the root of a timed call)."""
        return self.wrap(fn, name, layer)(*args, **kwargs)

    def layer_totals(self, tag: str) -> Dict[str, float]:
        """Self seconds per layer over the spans carrying *tag*, with the
        root spans' self time under ``unattributed``."""
        totals = {layer: 0.0 for layer in (*LAYERS, "unattributed")}
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.tag == tag:
                totals["unattributed" if span.parent < 0 else span.layer] += own
        return totals


#: The least share of a traced call that may go unattributed: the ratio of
#: one traced to one untraced call scatters by about this much around 1, so
#: a tighter test would fail on timing noise alone.
UNATTRIBUTED_FLOOR = 0.02

#: Seconds any call may leave unattributed besides: ``run_trials``' own
#: argument checks and the wrappers' bookkeeping, which only matter on
#: calls of a few milliseconds.
UNATTRIBUTED_MIN_S = 1e-3


def attribution_failure(totals: Dict[str, float], traced_s: float,
                        untraced_s: float) -> Optional[str]:
    """Do the layers account for a traced call's wall time?

    The time no hooked function covers must stay within the tracing
    overhead (traced ÷ untraced wall, minus one) times the traced wall,
    or :data:`UNATTRIBUTED_FLOOR` of it, plus :data:`UNATTRIBUTED_MIN_S`;
    returns why not, or ``None``.
    """
    overhead = traced_s / untraced_s - 1.0
    allowed = max(overhead, UNATTRIBUTED_FLOOR) * traced_s + UNATTRIBUTED_MIN_S
    if totals["unattributed"] > allowed:
        return (f"{totals['unattributed']:.4f} s of {traced_s:.4f} s fell in no "
                f"hooked layer (allowed {allowed:.4f} s)")
    return None


def _noise_mb(span: Span, args, kwargs, out) -> None:
    span.mb = getattr(out, "nbytes", 0) / 1e6


def _tiles(span: Span, args, kwargs, out) -> None:
    tiles = kwargs.get("tiles", args[6] if len(args) > 6 else ())
    span.count = len(tiles)


def _chunks(span: Span, args, kwargs, out) -> None:
    span.count = len(args[0] if args else kwargs["batches"])


#: (defining module, attribute, layer, measure).  ``Class.method`` entries
#: are patched on the class; plain functions in every ``repro`` module that
#: imported them by name.  Names a later version of the engine no longer
#: has are listed by :meth:`EngineHooks.install`, and the run fails on them.
ENGINE_HOOKS = (
    ("repro.data.scores", "topc_values", "data", None),
    ("repro.data.scores", "ScoreSource.take", "data", None),
    ("repro.data.scores", "ScoreSource.to_array", "data", None),
    ("repro.data.scores", "DenseScores.block", "data", None),
    ("repro.data.scores", "DenseScores.take", "data", None),
    ("repro.data.scores", "DenseScores.to_array", "data", None),
    ("repro.data.scores", "GeneratorScores.block", "data", None),
    ("repro.data.scores", "GeneratorScores.take", "data", None),
    ("repro.engine.noise", "laplace_vector", "noise", _noise_mb),
    ("repro.engine.noise", "laplace_matrix", "noise", _noise_mb),
    ("repro.engine.noise", "gumbel_matrix", "noise", _noise_mb),
    ("repro.engine.noise", "TrialStreams.checkpoint", "noise", None),
    ("repro.engine.noise", "TrialStreams.replayers", "noise", None),
    ("repro.engine.trials", "cut_matrix", "kernel", None),
    ("repro.engine.trials", "selection_matrix", "kernel", None),
    ("repro.engine.trials", "svt_selection_matrix", "kernel", None),
    ("repro.engine.trials", "svt_selection_grid", "kernel", None),
    # Private, but it is the comparison kernel of every threshold variant
    # (Alg. 2's segmented rescans run inside it); unwrapped, that time
    # would land in the exec layer's root span.
    ("repro.engine.trials", "_above_for_variant", "kernel", None),
    # Private too: one dense (variant, epsilon) cell.  Its self time is the
    # positives mask and selection scatter it builds inline; unwrapped,
    # that would be unattributed time of the timed call.
    ("repro.engine.trials", "_run_cell", "kernel", None),
    ("repro.engine.retraversal", "em_selection_matrix", "kernel", None),
    ("repro.engine.retraversal", "retraversal_trials", "kernel", None),
    ("repro.engine.tiled", "run_tiled_chunk", "fold", _tiles),
    ("repro.metrics.utility", "batch_selection_metrics", "metrics", None),
    ("repro.metrics.utility", "metrics_from_topc", "metrics", None),
    ("repro.engine.plans", "plan_trials", "exec", None),
    ("repro.engine.exec", "execute_trials", "exec", None),
    ("repro.engine.exec", "merge_batches", "exec", _chunks),
)


class EngineHooks:
    """Installs and removes the :data:`ENGINE_HOOKS` wrappers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> List[str]:
        """Wrap every hook; returns the names that could not be found."""
        missing = []
        for module_name, attr, layer, measure in ENGINE_HOOKS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(name)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self.recorder.wrap(original, attr, layer, measure)
                self._patch(owner, name, original, wrapped)
                continue
            original = getattr(module, name, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.recorder.wrap(original, attr, layer, measure)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "") or "").startswith("repro") and \
                        mod.__dict__.get(name) is original:
                    self._patch(mod, name, original, wrapped)
        return missing

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
