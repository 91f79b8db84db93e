"""Binomial canonical forms, JSON and text output, basis set ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclab.binomials import (
    BinomialError,
    DegreeMismatchError,
    NonCoprimeError,
    make_basis_set,
    make_binomial,
    render_monomial,
)
from toriclab.graphs import degree_of

from conftest import binomial_from_vector


def total(exponents):
    return (sum(exponents),)


def signed(b):
    """The signed exponent vector plus - minus of a binomial."""
    return tuple(p - q for p, q in zip(b.plus, b.minus))


def test_plus_side_is_lex_larger():
    b = make_binomial((0, 0, 1, 1), (1, 1, 0, 0), total)
    assert b.plus == (1, 1, 0, 0)
    assert b.minus == (0, 0, 1, 1)
    assert b.render() == "e1*e2 - e3*e4"


def test_render_powers_and_prefix():
    b = make_binomial((0, 3, 0), (2, 0, 1), total)
    assert b.render("x") == "x1^2*x3 - x2^3"
    assert render_monomial((0, 0, 0)) == "1"


def test_rejects_shared_support():
    with pytest.raises(NonCoprimeError):
        make_binomial((1, 1, 0), (1, 0, 1), total)
    # a squared variable against a linear one: 2 & 1 == 0, yet both are used
    with pytest.raises(NonCoprimeError, match=r"indices \[0\]"):
        make_binomial((2, 0, 1), (1, 2, 0), total)


def test_rejects_zero_and_negative():
    with pytest.raises(BinomialError):
        make_binomial((1, 0), (1, 0), total)
    with pytest.raises(BinomialError):
        make_binomial((-1, 1), (0, 0), total)


@pytest.mark.parametrize("exponent", [1.0, True, np.int64(1), "1"])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_rejects_exponents_that_are_not_int(side, exponent):
    plus, minus = [exponent, 0], [0, 1]
    if side == "minus":
        plus, minus = minus, plus
    with pytest.raises(BinomialError, match="exponents must be int"):
        make_binomial(plus, minus, total)


def test_rejects_degree_mismatch(graph_of):
    c4 = graph_of("c4")
    with pytest.raises(DegreeMismatchError):
        make_binomial((1, 0, 0, 0), (0, 1, 0, 0), lambda e: degree_of(c4, e))


def test_vector_round_trip():
    b = binomial_from_vector((2, -1, 0, -1), total)
    assert signed(b) == (2, -1, 0, -1)
    assert b.total_degree == 2


def test_json_round_trip():
    b = make_binomial((0, 2, 0, 1), (1, 0, 2, 0), total)
    obj = b.to_json("x")
    assert obj["text"] == b.render("x")


def test_to_json_builds_fresh_dicts_per_prefix():
    b = make_binomial((0, 2, 0, 1), (1, 0, 2, 0), total)
    e, x = b.to_json("e"), b.to_json("x")
    assert e["plus"] == {"e1": 1, "e3": 2} and x["plus"] == {"x1": 1, "x3": 2}
    assert e["text"] == b.render("e") and x["text"] == b.render("x")
    again = b.to_json("e")
    assert again == e and again is not e and again["plus"] is not e["plus"]
    # a set's JSON is fresh too, down to the tags: changing it changes no set
    shared = {"failures": ["M1"]}
    s = make_basis_set("graver", 4, [(b, shared)])
    obj = s.to_json()
    assert obj == s.to_json() and obj["elements"] is not s.to_json()["elements"]
    obj["elements"][0]["tags"]["failures"].append("M2")
    obj["elements"][0]["plus"].clear()
    assert shared == {"failures": ["M1"]}
    assert s.to_json()["elements"][0]["plus"] == {"e1": 1, "e3": 2}


def test_basis_set_sorted_and_deduplicated():
    b1 = make_binomial((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), total)
    b2 = make_binomial((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), total)
    b3 = make_binomial((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1), total)
    s = make_basis_set("graver", 6, [(b3, {}), (b1, {"a": 1}), (b2, {}), (b1, {"a": 1})])
    assert len(s) == 3
    # degree first, then plus side
    assert s.elements == (b2, b1, b3)
    assert (b1.plus, b1.minus) in s.element_set()
    assert s.annotations[1] == {"a": 1}


def test_element_set_is_built_once():
    b = make_binomial((1, 0), (0, 1), total)
    s = make_basis_set("graver", 2, [(b, {})])
    keys = s.element_set()
    assert keys == {(b.plus, b.minus)}
    assert s.element_set() is keys


def test_subset_keeps_order_and_shares_annotations():
    b1 = make_binomial((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), total)
    b2 = make_binomial((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), total)
    b3 = make_binomial((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1), total)
    s = make_basis_set(
        "graver", 6, [(b1, {"keep": True}), (b2, {"keep": False}), (b3, {"keep": True})]
    )
    sub = s.subset("ugb", lambda _, ann: ann["keep"])
    assert (sub.kind, sub.variables, sub.elements) == ("ugb", 6, (b1, b3))
    assert sub.annotations[0] is s.annotations[1]
    assert sub.annotations[1] is s.annotations[2]
    assert s.subset("markov", lambda b, _: b is b2).elements == (b2,)
    assert len(s.subset("indispensable", lambda *_: False)) == 0
    with pytest.raises(ValueError):
        s.subset("mystery", lambda *_: True)


def test_basis_set_keeps_the_annotation_it_is_given():
    # no copy: elements with equal tags can share one dict
    b1 = make_binomial((1, 1, 0, 0), (0, 0, 1, 1), total)
    b2 = make_binomial((1, 0, 1, 0), (0, 1, 0, 1), total)
    shared = {"a": 1}
    s = make_basis_set("graver", 4, [(b1, shared), (b2, shared), (b1, {"a": 1})])
    assert len(s) == 2
    assert all(ann is shared for ann in s.annotations)


def test_basis_set_conflicting_tags_rejected():
    b = make_binomial((1, 0), (0, 1), total)
    with pytest.raises(BinomialError):
        make_basis_set("graver", 2, [(b, {"a": 1}), (b, {"a": 2})])


def test_basis_set_kind_and_length_validation():
    b = make_binomial((1, 0), (0, 1), total)
    with pytest.raises(ValueError):
        make_basis_set("mystery", 2, [(b, {})])
    with pytest.raises(BinomialError):
        make_basis_set("graver", 3, [(b, {})])


@st.composite
def vectors(draw):
    """Lists of 2-6 integers in -3..3 with zero sum and a positive entry.

    Built to meet the condition rather than filtered: one entry is drawn
    positive, each other entry is drawn from the values that still let the
    entries after it cancel the running sum, and the last one cancels it.
    """
    n = draw(st.integers(2, 6))
    at = draw(st.integers(0, n - 1))
    positive = draw(st.integers(1, 3))
    running = positive
    others = []
    for left in range(n - 2, 0, -1):
        low, high = max(-3, -running - 3 * left), min(3, 3 * left - running)
        x = draw(st.integers(low, high))
        others.append(x)
        running += x
    others.append(-running)
    return others[:at] + [positive] + others[at:]


@given(vectors())
@settings(max_examples=150, deadline=None)
def test_vector_round_trip_any(v):
    b = binomial_from_vector(v, total)
    # orientation is canonical, so the vector survives up to a global sign
    assert signed(b) in (tuple(v), tuple(-x for x in v))


POOL = [
    binomial_from_vector(v, total)
    for v in [
        (1, -1, 0, 0),
        (0, 0, 1, -1),
        (2, -1, -1, 0),
        (1, 1, -2, 0),
        (0, 3, -2, -1),
        (1, -2, 2, -1),
    ]
]


@given(st.lists(st.sampled_from(POOL), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_basis_sort_is_deterministic(bs):
    items = [(b, {}) for b in bs]
    s1 = make_basis_set("graver", 4, items)
    s2 = make_basis_set("graver", 4, list(reversed(items)))
    assert s1.elements == s2.elements
    assert len(s1) == len(set(bs))
