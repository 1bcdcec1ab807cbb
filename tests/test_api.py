"""The package's public surface: one export list, built from the submodules."""

import byzcount
from byzcount import adversary, baseline, engine, graph, protocol, rng

SUBMODULES = (graph, protocol, adversary, engine, baseline, rng)


def test_every_exported_name_resolves():
    missing = [name for name in byzcount.__all__ if not hasattr(byzcount, name)]
    assert missing == []
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(byzcount, name) is getattr(module, name)


def test_export_list_is_the_union_of_the_submodule_lists():
    union = [name for module in SUBMODULES for name in module.__all__]
    assert len(set(union)) == len(union)              # no name in two modules
    assert sorted(byzcount.__all__) == sorted(union + ["__version__"])
    assert "default_injection_color" in adversary.__all__
