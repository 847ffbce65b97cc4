"""Operator encoding consistency and rule-family structure.

The truth-table encoding is load-bearing for every closed form in the
package, so this file pins it exhaustively: named operators, stability
families, the parity families, and the mask plumbing.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from boolgossip import rules
from boolgossip.errors import ParseError


def _truth_table(op):
    """(f(0,0), f(0,1), f(1,0), f(1,1)) for operator op."""
    return tuple(rules.evaluate(op, a, b) for a in (0, 1) for b in (0, 1))


def _all_rule_sets():
    """All 65535 nonempty operator sets in ascending mask order."""
    return [rules.mask_ops(mask) for mask in range(1, 1 << 16)]


def test_encoding_definition():
    for k in range(16):
        f00, f01, f10, f11 = _truth_table(k)
        assert k == 8 * f00 + 4 * f01 + 2 * f10 + 1 * f11


def test_named_operators():
    assert _truth_table(rules.OP_FALSE) == (0, 0, 0, 0)
    assert _truth_table(rules.OP_TRUE) == (1, 1, 1, 1)
    assert _truth_table(rules.OP_XOR) == (0, 1, 1, 0)
    for a in (0, 1):
        for b in (0, 1):
            assert rules.evaluate(rules.OP_AND, a, b) == (a & b)
            assert rules.evaluate(rules.OP_OR, a, b) == (a | b)
            assert rules.evaluate(rules.OP_FIRST, a, b) == a
            assert rules.evaluate(rules.OP_DIFF, a, b) == (a & (1 - b))
            assert rules.evaluate(rules.OP_NOT_SECOND, a, b) == 1 - b
            assert rules.evaluate(rules.OP_IMPLIED_BY, a, b) == (a | (1 - b))


def test_evaluate_spot_values():
    # The values every closed form leans on.
    assert rules.evaluate(0xA, 0, 0) == 1
    assert rules.evaluate(0xA, 1, 1) == 0
    assert rules.evaluate(0x6, 1, 1) == 0
    assert rules.evaluate(0x6, 0, 1) == 1
    assert rules.evaluate(0x2, 1, 1) == 0


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError):
        rules.evaluate(16, 0, 0)
    with pytest.raises(ValueError):
        rules.evaluate(-1, 0, 0)
    with pytest.raises(ValueError):
        rules.evaluate(3, 2, 0)


def test_stability_families_exhaustive():
    assert rules.ZERO_STABLE == frozenset(range(8))
    assert rules.ONE_STABLE == frozenset(k for k in range(16) if k % 2 == 1)
    assert rules.SPLIT_STABLE == frozenset({0x2, 0x3, 0xA, 0xB})
    assert rules.NEIGHBOR_COPY == frozenset({0x4, 0x5, 0xC, 0xD})
    assert rules.AND_OR == frozenset({0x1, 0x7})


def test_family_refinements():
    assert rules.SPLIT_STABLE & rules.ZERO_STABLE == frozenset({0x2, 0x3})
    assert rules.SPLIT_STABLE & rules.ONE_STABLE == frozenset({0x3, 0xB})
    assert rules.SPLIT_STABLE & rules.ZERO_STABLE & rules.ONE_STABLE == frozenset(
        {0x3}
    )
    # AND and OR are the only split of ZERO n ONE that matches and/or tables.
    assert rules.AND_OR <= rules.ZERO_STABLE & rules.ONE_STABLE


def test_parity_family_census():
    # The two families as the paper states them, kept here as the reference
    # that the one set in rules is checked against.
    def inverter(ops):
        return rules.OP_NOT_SECOND in ops and len(ops) > 1 and ops <= rules.SPLIT_STABLE

    def split_pair(ops):
        return {rules.OP_DIFF, rules.OP_IMPLIED_BY} <= ops <= rules.SPLIT_STABLE

    every = _all_rule_sets()
    inverters = {c for c in every if inverter(c)}
    split_pairs = {c for c in every if split_pair(c)}
    assert len(inverters) == 7
    assert len(split_pairs) == 4
    assert len(inverters & split_pairs) == 2
    assert inverters | split_pairs == rules.PARITY_FAMILIES
    assert len(rules.PARITY_FAMILIES) == 9
    assert {c for c in every if rules.is_parity_family(c)} == rules.PARITY_FAMILIES
    for fam in rules.PARITY_FAMILIES:
        assert fam <= rules.SPLIT_STABLE


def test_parity_family_edge_cases():
    assert not rules.is_parity_family({0xA})
    assert rules.is_parity_family({0xA, 0x2})
    assert rules.is_parity_family({0x2, 0xB})
    assert not rules.is_parity_family({0x2, 0x3})
    assert not rules.is_parity_family(rules.AND_OR)
    assert not rules.is_parity_family({0x2, 0xB, 0x7})  # leaves SPLIT_STABLE


def test_all_rule_sets_enumeration():
    seen = _all_rule_sets()
    assert len(seen) == 65535
    assert seen[0] == frozenset({0})
    assert seen[-1] == frozenset(range(16))
    assert len(set(seen)) == 65535
    inside_zero = [c for c in seen if c <= rules.ZERO_STABLE]
    assert len(inside_zero) == 255


def test_mask_round_trip():
    # Every mask, against a set built one operator at a time: equal, in the
    # same iteration order, and packing back to its mask.
    for mask in range(1 << 16):
        ops = rules.mask_ops(mask)
        want = frozenset(k for k in range(16) if mask >> k & 1)
        assert ops == want
        assert tuple(ops) == tuple(want)
        assert sum(1 << k for k in ops) == mask
    for bad in (-1, 1 << 16):
        with pytest.raises(ValueError):
            rules.mask_ops(bad)


def test_rule_set_defaults():
    rs = rules.RuleSet((0x1, 0x7))
    assert rs.probs == (Fraction(1, 2), Fraction(1, 2))
    assert rs.op_set == rules.AND_OR
    assert str(rs) == "1,7"


def test_rule_set_validation():
    with pytest.raises(ValueError):
        rules.RuleSet(())
    with pytest.raises(ValueError):
        rules.RuleSet((1, 1))
    with pytest.raises(ValueError):
        rules.RuleSet((16,))
    with pytest.raises(ValueError):
        rules.RuleSet((1, 7), (0.5,))
    with pytest.raises(ValueError):
        rules.RuleSet((1, 7), (1.2, -0.2))
    with pytest.raises(ValueError):
        rules.RuleSet((1, 7), (0.6, 0.6))
    # Tolerance: off by a hair is fine, off by 1e-6 is not.
    rules.RuleSet((1, 7), (0.5 + 1e-13, 0.5))
    with pytest.raises(ValueError):
        rules.RuleSet((1, 7), (0.5 + 1e-6, 0.5))


def test_parse_and_format_rules():
    assert rules.parse_rules("2,B") == (0x2, 0xB)
    assert rules.parse_rules("2, b") == (0x2, 0xB)
    assert rules.format_rules((0x2, 0xB)) == "2,B"
    assert rules.parse_rules(rules.format_rules((0, 9, 0xF))) == (0, 9, 0xF)
    with pytest.raises(ParseError):
        rules.parse_rules("1,17")
    with pytest.raises(ParseError):
        rules.parse_rules("1,G")
    with pytest.raises(ParseError):
        rules.parse_rules("1,1")


def test_parse_probs():
    assert rules.parse_probs("0.3,0.7") == (0.3, 0.7)
    with pytest.raises(ParseError):
        rules.parse_probs("0.3,x")
