"""The benchmark tracer in ``perfbench/`` patches byzcount by attribute name.

It is loaded here read-only, so a refactor that renames or drops one of the
names it wraps, or the small-world table fields it measures, fails Tier-1
instead of breaking traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from byzcount import engine
from byzcount.graph import generate_h_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_name_engine_attributes():
    tracer = _load_tracer()
    missing = [attr for attr in tracer.ENGINE_SPANS
               if not callable(getattr(engine, attr, None))]
    assert missing == []
    assert callable(engine.make_strategy)


def test_augment_result_has_the_measured_tables():
    topo = engine.augment_small_world(generate_h_graph(64, 8, seed=0))
    for name in ("l_ptr", "l_idx"):
        assert isinstance(getattr(topo, name).nbytes, int)
    tracer = _load_tracer()
    tr = tracer.Tracer()
    tracer._note_l_bytes(tr, topo)
    assert tr.counts["graph.l_bytes"] == topo.l_ptr.nbytes + topo.l_idx.nbytes > 0
