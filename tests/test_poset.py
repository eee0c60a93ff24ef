"""Generic poset machinery: closure, covers, incomparability, exports."""

import random

import pytest

import oracles
from asl_forge import Poset


def test_chain():
    p = Poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert p.leq("a", "d") and not p.leq("d", "a")
    assert p.leq("b", "b")
    assert p.incomparable_pairs() == ()
    assert p.covers() == [("a", "b"), ("b", "c"), ("c", "d")]


def test_antichain():
    p = Poset("abc", [])
    assert p.covers() == []
    assert p.incomparable_pairs() == (("a", "b"), ("a", "c"), ("b", "c"))


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(ValueError):
        Poset("ab", [("a", "b"), ("b", "a")])


def test_cycle_error_names_the_first_element_and_its_first_partner():
    # the first element on a cycle, in element-list order, and the first
    # element above and below it, whatever the hash seed
    cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    message = "relations force 'a' <= 'b' and 'b' <= 'a'"
    for relations in (cycle, cycle[::-1]):
        with pytest.raises(ValueError) as caught:
            Poset("abcd", relations)
        assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        Poset("xabc", [("x", "a"), ("c", "b"), ("b", "c")])
    assert str(caught.value) == "relations force 'b' <= 'c' and 'c' <= 'b'"


def test_self_relation_harmless():
    p = Poset("ab", [("a", "a"), ("a", "b")])
    assert p.leq("a", "b")


def test_unknown_elements_rejected():
    with pytest.raises(ValueError):
        Poset("ab", [("a", "z")])
    p = Poset("ab", [])
    with pytest.raises(ValueError):
        p.leq("a", "z")


def test_duplicate_elements_deduplicated():
    p = Poset("aab", [("a", "b")])
    assert p.elements == ("a", "b")


def test_transitive_reduction_drops_implied_edges():
    p = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers() == [("a", "b"), ("b", "c")]


def test_covers_and_incomparability_match_oracle_on_random_dags():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(2, 9)
        elements = list(range(k))
        relations = [(a, b)
                     for a in elements for b in elements
                     if a < b and rng.random() < 0.3]
        p = Poset(elements, relations)
        assert set(p.covers()) == oracles.cover_edges(elements, relations)
        assert p.incomparable_pairs() == tuple(oracles.incomparable_pairs(
            elements, relations))
        tc = oracles.closure(elements, relations)
        for a in elements:
            for b in elements:
                expected = a == b or tc.has_edge(a, b)
                assert p.leq(a, b) == expected
        # elements are their own positions here
        assert list(p.up) == [
            sum(1 << b for b in elements if a == b or tc.has_edge(a, b))
            for a in elements]
        assert list(p.down) == [
            sum(1 << a for a in elements if a == b or tc.has_edge(a, b))
            for b in elements]
        masks = p.comparable_masks
        for a in elements:
            assert masks[a] >> a & 1
            for b in elements:
                assert masks[a] >> b & 1 == masks[b] >> a & 1
                assert bool(masks[a] >> b & 1) == (
                    a == b or tc.has_edge(a, b) or tc.has_edge(b, a))


def test_json_export():
    p = Poset("abc", [("a", "b"), ("b", "c")])
    assert p.to_json_dict() == {
        "elements": ["a", "b", "c"],
        "covers": [["a", "b"], ["b", "c"]],
    }


def test_dot_export_deterministic():
    p = Poset("ab", [("a", "b")])
    dot = p.to_dot("pp")
    assert dot.startswith("digraph pp {")
    assert '"a";' in dot and '"b";' in dot
    assert '"a" -> "b";' in dot
    assert dot == Poset("ab", [("a", "b")]).to_dot("pp")
