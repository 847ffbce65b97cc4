"""The package's public surface."""

from __future__ import annotations

import importlib

import boolgossip

# Names that only tests used; each module that defined one no longer does.
REMOVED = {
    "absorbing": (
        "StateClass",
        "check_graph_independence",
        "classify_state",
        "is_absorbing_state",
    ),
    "graphs": ("GraphShape", "serialize_edge_list"),
    "rules": (
        "all_rule_sets",
        "is_inverter_family",
        "is_split_pair_family",
        "ops_mask",
        "truth_table",
    ),
}


def test_all_is_sorted_unique_and_resolves():
    names = boolgossip.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        assert getattr(boolgossip, name) is not None


def test_removed_names_are_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(f"boolgossip.{module_name}")
        for name in names:
            assert name not in boolgossip.__all__
            assert not hasattr(boolgossip, name)
            assert not hasattr(module, name)
