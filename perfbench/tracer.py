"""Span tracer that times byzcount's layers from outside the package.

``Tracer.patch`` swaps a module attribute for a wrapper that records one
span per call (name, start, end, parent span) and ``Tracer.restore`` puts
every original back.  Spans stay in memory, in flat arrays, until the
caller writes them out with ``Tracer.save``.

``traced_layers`` applies the tracer to the names ``byzcount.engine``
imports from the other modules, to ``run_experiment`` itself, and to the
hook methods of every strategy ``engine.make_strategy`` returns.  This
module imports nothing from byzcount, so its tests run without it.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# engine attribute -> span name; the prefix is the module the code lives in
ENGINE_SPANS = {
    "run_experiment": "engine.run_experiment",
    "deliver_round": "engine.deliver_round",
    "generate_h_graph": "graph.generate_h_graph",
    "augment_small_world": "graph.augment_small_world",
    "classify_nodes": "graph.classify_nodes",
    "reconstruct_local_topology": "protocol.reconstruct_local_topology",
    "verify_color_provenance": "protocol.verify_color_provenance",
    "byzantine_node_step": "protocol.byzantine_node_step",
    "stream": "rng.stream",
}
STRATEGY_HOOKS = ("prepare", "injections_for", "answer_query", "setup_report")


class Tracer:
    """Records nested call spans and event counts for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")      # -1 for a root span
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``on_result(tracer, result)`` runs after a call that returned.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack = self.parents, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Overlapping children are counted once, and only the part of a child
        inside its parent's interval is subtracted.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * len(starts)
        reach: dict[int, float] = {}   # parent -> latest child end seen
        children = [i for i in range(len(starts)) if parents[i] >= 0]
        children.sort(key=lambda i: (parents[i], starts[i]))
        for i in children:
            p = parents[i]
            lo = max(starts[i], starts[p], reach.get(p, starts[p]))
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
            reach[p] = max(reach.get(p, starts[p]), ends[i])
        return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total seconds ``s`` and ``self_s``."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for nid, start, end, own in zip(self.name_ids, self.starts, self.ends,
                                        self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own
        return out

    def save(self, path: str) -> None:
        """Write every span as JSON: names plus parallel span columns."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": list(self.name_ids),
                       "start": list(self.starts),
                       "end": list(self.ends),
                       "parent": list(self.parents),
                       "counts": dict(self.counts)}, fh)


def _note_l_bytes(tracer: Tracer, topo) -> None:
    size = topo.l_ptr.nbytes + topo.l_idx.nbytes
    tracer.counts["graph.l_bytes"] = max(tracer.counts["graph.l_bytes"], size)


def _note_accepted(tracer: Tracer, ok: bool) -> None:
    if ok:
        tracer.counts["protocol.verify_color_provenance.accepted"] += 1


@contextmanager
def traced_layers(tracer: Tracer, engine):
    """Trace byzcount's layers through ``engine`` for the ``with`` body."""

    def note_conflict(tr: Tracer, res) -> None:
        if isinstance(res, engine.TopologyConflict):
            tr.counts["protocol.reconstruct_local_topology.conflicts"] += 1

    on_result = {
        "augment_small_world": _note_l_bytes,
        "verify_color_provenance": _note_accepted,
        "reconstruct_local_topology": note_conflict,
    }
    make_strategy = engine.make_strategy

    def traced_make_strategy(*args, **kwargs):
        strategy = make_strategy(*args, **kwargs)
        if strategy is not None:
            for hook in STRATEGY_HOOKS:
                setattr(strategy, hook,
                        tracer.wrap(f"adversary.{hook}", getattr(strategy, hook)))
        return strategy

    try:
        for attr, name in ENGINE_SPANS.items():
            tracer.patch(engine, attr, name, on_result.get(attr))
        tracer.replace(engine, "make_strategy", traced_make_strategy)
        yield tracer
    finally:
        tracer.restore()
