"""Robustness verdicts, rule witnesses and structural implications."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toriclab.robustness
from toriclab.bases import analyze_graph, fiber_bundle
from toriclab.binomials import make_basis_set, make_binomial
from toriclab.cli import main
from toriclab.corpus import random_connected_graphs
from toriclab.errors import InternalInvariantError
from toriclab.graphs import parse_graph
from toriclab.robustness import (
    _division_free_witness,
    check_generalized_robust_circuits,
    check_generalized_robust_conditions,
    check_generalized_robust_sets,
    check_unique_generation,
    circuit_rule_violations,
    implication_suite,
    robustness_verdict,
)

# generalized robust, robust
EXPECTED_VERDICTS = {
    "k4": (True, False),
    "c4": (True, True),
    "domino": (False, False),
    "bowtie": (True, True),
    "tri_edge_tri": (True, True),
    "tri_square_tri_adjacent": (False, False),
    "tri_square_tri_opposite": (True, True),
    "hexchord": (False, False),
    "triangle_per_corner": (False, False),
    "octagon_three_chords": (False, False),
}

M2_GRAPH = "1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n1 8\n1 5\n2 8\n"


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_verdicts(verdict_of, name):
    v = verdict_of(name)
    assert (v.generalized_robust, v.robust) == EXPECTED_VERDICTS[name]


def test_verdict_criteria_names(verdict_of):
    assert [c.name for c in verdict_of("k4").criteria] == [
        "markov-equals-graver",
        "primitive-chord-conditions",
        "circuit-conditions",
        "unique-minimal-generation",
    ]


def test_domino_witnesses(graph_of, analysis_of):
    g, a = graph_of("domino"), analysis_of("domino")
    rep = check_generalized_robust_circuits(g, a)
    assert not rep.holds
    assert rep.witness["rule"] == "R1"
    assert rep.witness["chord"] == "{3, 4}"
    assert rep.witness["kind"] == "even"

    violations = circuit_rule_violations(g, a)
    assert set(violations) == {"R1", "R3"}
    r3 = violations["R3"]
    assert r3["edge"] == "{3, 4}"
    texts = {b["text"] for b in r3["binomials"]}
    assert texts == {"e1*e3 - e2*e4", "e3*e6 - e5*e7"}


def test_adjacent_witnesses(graph_of, analysis_of):
    g, a = graph_of("tri_square_tri_adjacent"), analysis_of("tri_square_tri_adjacent")
    sets_rep = check_generalized_robust_sets(a)
    assert not sets_rep.holds
    assert sets_rep.witness["minimality_failures"] == ["M4"]

    cond_rep = check_generalized_robust_conditions(a)
    assert not cond_rep.holds
    assert cond_rep.witness["codes"] == ["M1"]

    circ_rep = check_generalized_robust_circuits(g, a)
    assert not circ_rep.holds
    assert circ_rep.witness["rule"] == "R1"
    assert circ_rep.witness["kind"] == "bridge"
    assert circ_rep.witness["chord"] == "{1, 2}"


def test_crossing_without_square_trips_rule_two():
    g = parse_graph(M2_GRAPH)
    a = analyze_graph(g)
    violations = circuit_rule_violations(g, a)
    assert "R2" in violations
    assert set(violations["R2"]["chords"]) == {"{1, 5}", "{2, 8}"}
    assert "R1" not in violations


def test_unique_generation(graph_of, analysis_of, bundle_of):
    rep = check_unique_generation(analysis_of("k4"), bundle_of("k4"))
    assert not rep.holds
    assert rep.witness["binomial"]["text"] == "e3*e4 - e5*e6"

    rep = check_unique_generation(
        analysis_of("triangle_per_corner"), bundle_of("triangle_per_corner")
    )
    assert rep.holds


def _first_missing(source, other):
    """The first element of ``source`` minus ``other`` in sort order."""
    missing = source.element_set() - other.element_set()
    return min(
        (b for b in source.elements if (b.plus, b.minus) in missing),
        key=lambda b: b.sort_key(),
    )


def test_failing_criteria_name_the_least_missing_element(analysis_of, bundle_of):
    failed = []
    for name in EXPECTED_VERDICTS:
        a, bundle = analysis_of(name), bundle_of(name)
        rep = check_generalized_robust_sets(a)
        if not rep.holds:
            least = _first_missing(a.graver, a.universal_markov)
            assert rep.witness["binomial"] == least.to_json(), name
            failed.append(rep.name)
        rep = check_unique_generation(a, bundle)
        if not rep.holds:
            least = _first_missing(a.universal_markov, bundle.indispensable)
            assert rep.witness == {"binomial": least.to_json()}, name
            failed.append(rep.name)
    # both criteria fail somewhere, so both witnesses were compared
    assert set(failed) == {"markov-equals-graver", "unique-minimal-generation"}


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_implication_suite_holds(graph_of, analysis_of, bundle_of, name):
    suite = implication_suite(graph_of(name), analysis_of(name), bundle_of(name))
    assert suite.ok, suite.to_json()


def test_implications_non_vacuous(graph_of, analysis_of, bundle_of):
    # no four-cycle here, so the unique-generation implication really fires
    suite = implication_suite(
        graph_of("triangle_per_corner"),
        analysis_of("triangle_per_corner"),
        bundle_of("triangle_per_corner"),
    )
    obs = suite.observations
    assert not obs["has_four_cycle"]
    assert obs["indispensable_equals_markov"]
    assert not obs["generalized_robust"] and not obs["robust"]

    # robust graph, so the division-freedom check actually scanned the basis
    suite = implication_suite(
        graph_of("tri_square_tri_opposite"),
        analysis_of("tri_square_tri_opposite"),
        bundle_of("tri_square_tri_opposite"),
    )
    assert suite.observations["robust"]
    assert all(c.holds for c in suite.implications)


def test_division_witness_detector():
    deg = lambda v: (sum(v),)  # noqa: E731
    small = make_binomial((1, 1, 0, 0), (0, 0, 1, 1), deg)
    big = make_binomial((2, 1, 0, 0), (0, 0, 2, 1), deg)

    clean = SimpleNamespace(
        universal_groebner=make_basis_set("ugb", 4, [(small, {})])
    )
    assert _division_free_witness(clean) is None

    dirty = SimpleNamespace(
        universal_groebner=make_basis_set("ugb", 4, [(small, {}), (big, {})])
    )
    witness = _division_free_witness(dirty)
    assert witness is not None
    assert witness["divisor"]["binomial"]["text"] == "e1*e2 - e3*e4"
    assert witness["multiple"]["binomial"]["text"] == "e1^2*e2 - e3^2*e4"


def _division_free_witness_reference(analysis):
    """``_division_free_witness`` by its definition: every ordered pair of
    terms from two elements, in term order, compared entry by entry."""
    terms = [
        (b, side, mono)
        for b in analysis.universal_groebner.elements
        for side, mono in (("plus", b.plus), ("minus", b.minus))
    ]
    for b1, side1, m1 in terms:
        for b2, side2, m2 in terms:
            if b1 is not b2 and all(x <= y for x, y in zip(m1, m2)):
                return {
                    "divisor": {"binomial": b1.to_json(), "term": side1},
                    "multiple": {"binomial": b2.to_json(), "term": side2},
                }
    return None


@st.composite
def term_lists(draw):
    """A universal Groebner stand-in: up to 14 binomials on 2-6 variables,
    exponents 0-3, so that terms often divide one another."""
    m = draw(st.integers(2, 6))
    exponent = st.tuples(st.sampled_from(("plus", "minus")), st.integers(0, 3))
    items = []
    rows = st.lists(st.lists(exponent, min_size=m, max_size=m), max_size=14)
    for signs in draw(rows):
        plus = tuple(k if side == "plus" else 0 for side, k in signs)
        minus = tuple(k if side == "minus" else 0 for side, k in signs)
        if plus != minus:
            items.append((make_binomial(plus, minus, lambda v: ()), {}))
    return SimpleNamespace(universal_groebner=make_basis_set("ugb", m, items))


@given(term_lists())
@settings(max_examples=300, deadline=None)
def test_division_witness_matches_the_pair_loop(analysis):
    # the posting-list scan finds the pair loop's first witness, or none
    assert _division_free_witness(analysis) == (
        _division_free_witness_reference(analysis)
    )


def test_verdict_json_shape(verdict_of):
    payload = verdict_of("domino").to_json()
    assert payload["generalized_robust"] is False
    assert payload["robust"] is False
    assert [c["name"] for c in payload["criteria"]][:2] == [
        "markov-equals-graver",
        "primitive-chord-conditions",
    ]
    assert payload["criteria"][0]["witness"] is not None


def test_random_corpus_agrees_and_implies():
    for g in random_connected_graphs(20, seed=77):
        a = analyze_graph(g)
        b = fiber_bundle(g, a)
        v = robustness_verdict(g, a, b)  # raises if the three checkers split
        suite = implication_suite(g, a, b)
        assert suite.ok, suite.to_json()
        if v.robust:
            assert v.generalized_robust


# Two triangles on the edge a b (a book of two pages), with two more
# triangles hung at a.  The sets, the fibers and the box oracle all say the
# ideal is generalized robust.  Two circuits share the edge a b and meet in
# no other vertex, but the rest of their union puts a in three blocks, so it
# is no primitive walk and rule R3 must not fire.  The books of three and
# four pages and a 16-edge graph from a seeded search are checked too.  Each
# is kept in the edge order whose input digest ROADMAP item 1 quotes.
R3_BREACHES = {
    "book_2_pages": "a b\na c\nb c\na d\nb d\na x\na y\nx y\na u\na v\nu v\n",
    "book_3_pages": "a b\na c\nb c\na d\nb d\na e\nb e\n"
    "a x\na y\nx y\na u\na v\nu v\n",
    "book_4_pages": "a b\na c\nb c\na d\nb d\na e\nb e\na f\nb f\n"
    "a x\na y\nx y\na u\na v\nu v\n",
    "seeded_16_edges": "0 6\n0 8\n1 5\n1 10\n2 5\n3 5\n3 8\n3 9\n3 10\n"
    "4 7\n4 8\n6 8\n7 8\n8 9\n8 11\n9 11\n",
}


@pytest.mark.parametrize("name", list(R3_BREACHES))
def test_book_with_hung_triangles_deciders_agree(name, tmp_path, capsys):
    text = R3_BREACHES[name]
    g = parse_graph(text)
    a = analyze_graph(g)
    verdicts = {
        check_generalized_robust_sets(a).holds,
        check_generalized_robust_conditions(a).holds,
        check_generalized_robust_circuits(g, a).holds,
    }
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    code = main(["check", str(path)])
    capsys.readouterr()
    assert code == 0
    assert verdicts == {True}


@pytest.mark.parametrize("rule", ["R1", "R2", "M1", "M2"])
def test_decider_rule_is_load_bearing(
    rule, graph_of, analysis_of, bundle_of, monkeypatch
):
    # With one rule taken out of the circuit decider (R1, R2) or the chord
    # decider (M1, M2), the deciders must split on some graph: a rule whose
    # loss no graph notices is not tested by the agreement gate.  Dropping
    # R1 splits 2 fixtures and M1 splits 5; R2 and M2 split only the M2
    # octagon.  Dropping R3 splits no graph tried (ROADMAP item 3).
    if rule.startswith("R"):
        circuit_rules = circuit_rule_violations

        def without(graph, analysis):
            found = circuit_rules(graph, analysis)
            found.pop(rule, None)
            return found

        monkeypatch.setattr(toriclab.robustness, "circuit_rule_violations", without)
    else:
        chord_conditions = check_generalized_robust_conditions

        def without(analysis):
            elements = tuple(
                replace(
                    e,
                    minimality_failures=tuple(
                        c for c in e.minimality_failures if c != rule
                    ),
                )
                for e in analysis.elements
            )
            return chord_conditions(replace(analysis, elements=elements))

        monkeypatch.setattr(
            toriclab.robustness, "check_generalized_robust_conditions", without
        )
    octagon = parse_graph(M2_GRAPH)
    octagon_analysis = analyze_graph(octagon)
    cases = [(graph_of(n), analysis_of(n), bundle_of(n)) for n in EXPECTED_VERDICTS]
    cases.append(
        (octagon, octagon_analysis, fiber_bundle(octagon, octagon_analysis))
    )
    split = 0
    for graph, analysis, bundle in cases:
        try:
            robustness_verdict(graph, analysis, bundle)
        except InternalInvariantError as exc:
            assert "checkers disagree" in str(exc)
            split += 1
    assert split
