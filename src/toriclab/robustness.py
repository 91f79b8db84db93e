"""Robustness decisions for graph toric ideals, with witnesses.

Generalized robustness (the universal Groebner basis equals the universal
Markov basis, equivalently both equal the Graver basis) is decided three
independent ways: by comparing the computed sets, by chord conditions on
every primitive walk, and by conditions on circuits alone.  Disagreement
between the checkers is an internal invariant breach.  Robustness additionally
requires the ideal to have a unique minimal generating system, i.e. every
universal Markov element must be indispensable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .bases import FiberBundle, GraphAnalysis
from .errors import InternalInvariantError
from .graphs import Graph, has_four_cycle
from .walks import uncompleted_crossing


@dataclass(frozen=True)
class CriterionReport:
    name: str
    holds: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "holds": self.holds, "witness": self.witness}


def check_generalized_robust_sets(analysis: GraphAnalysis) -> CriterionReport:
    """Direct comparison: the Graver basis must equal the universal Markov basis."""

    markov = analysis.universal_markov.element_set()
    for b, ann in zip(analysis.graver.elements, analysis.graver.annotations):
        if (b.plus, b.minus) not in markov:
            return CriterionReport(
                "markov-equals-graver",
                False,
                {
                    "binomial": b.to_json(),
                    "minimality_failures": list(ann["minimality_failures"]),
                },
            )
    return CriterionReport("markov-equals-graver", True)


def check_generalized_robust_conditions(analysis: GraphAnalysis) -> CriterionReport:
    """Chord test: every primitive walk must be free of M1 and M2 failures."""

    for e in analysis.elements:
        codes = [c for c in e.minimality_failures if c in ("M1", "M2")]
        if codes:
            return CriterionReport(
                "primitive-chord-conditions",
                False,
                {"binomial": e.binomial.to_json(), "codes": codes},
            )
    return CriterionReport("primitive-chord-conditions", True)


def circuit_rule_violations(graph: Graph, analysis: GraphAnalysis) -> dict[str, dict]:
    """First witness for each violated circuit rule, keyed R1/R2/R3.

    R1: no circuit has an even chord or a bridge.  R2: odd chords of a
    circuit crossing effectively must form a four-cycle with two walk edges.
    R3: no two circuits C1 and C2 share exactly one edge e, meet in no
    further vertices, and have e on a cycle of both, where the edges of C1
    and C2 other than e form the edge set of a primitive walk.

    The last clause is the rule as decided here, not read from the paper.
    Without it R3 refused generalized robust graphs, such as the book of
    two triangles with two more hung at one end, where those other edges
    put a vertex in three blocks.  With it, seeded searches of 385,174
    connected sparse graphs (6-13 vertices, n to n + 4 edges, at most 18)
    found R3 in disagreement with the other deciders in none, against 23
    without it; it still fired in 42,052 of 85,836 graphs, but never
    without R1 or R2.
    """

    circuits = [e for e in analysis.elements if e.shape]
    violations: dict[str, dict] = {}

    for e in circuits:
        if "R1" not in violations and "M1" in e.minimality_failures:
            bad = next(r for r in e.chords if r.kind != "odd")
            violations["R1"] = {
                "rule": "R1",
                "binomial": e.binomial.to_json(),
                "chord": graph.edge_label(bad.chord),
                "kind": bad.kind,
            }
        if "R2" not in violations and "M2" in e.minimality_failures:
            pair = uncompleted_crossing(e.crossings, e.f4s)
            violations["R2"] = {
                "rule": "R2",
                "binomial": e.binomial.to_json(),
                "chords": [graph.edge_label(r.chord) for r in pair],
            }

    # each circuit's edge and vertex sets, and every primitive walk's edge
    # set, built once rather than per pair
    sets = [(e, set(e.walk.edges), set(e.walk.vertices)) for e in circuits]
    primitive = {e.subset for e in analysis.elements}
    for (e1, edges1, vertices1), (e2, edges2, vertices2) in combinations(sets, 2):
        shared = edges1 & edges2
        if len(shared) != 1:
            continue
        edge = next(iter(shared))
        if vertices1 & vertices2 != set(graph.edges[edge]):
            continue
        if all(
            e.decomposition.is_cyclic(e.decomposition.block_of_edge[edge])
            for e in (e1, e2)
        ) and tuple(sorted((edges1 | edges2) - {edge})) in primitive:
            violations["R3"] = {
                "rule": "R3",
                "binomials": [
                    e1.binomial.to_json(),
                    e2.binomial.to_json(),
                ],
                "edge": graph.edge_label(edge),
            }
            break
    return violations


def check_generalized_robust_circuits(
    graph: Graph, analysis: GraphAnalysis
) -> CriterionReport:
    """Circuit test: rules R1, R2 and R3 must all hold."""

    name = "circuit-conditions"
    violations = circuit_rule_violations(graph, analysis)
    for rule in ("R1", "R2", "R3"):
        if rule in violations:
            return CriterionReport(name, False, violations[rule])
    return CriterionReport(name, True)


def check_unique_generation(
    analysis: GraphAnalysis, bundle: FiberBundle
) -> CriterionReport:
    """Every universal Markov element must be indispensable."""

    name = "unique-minimal-generation"
    indispensable = bundle.indispensable.element_set()
    for b in analysis.universal_markov.elements:
        if (b.plus, b.minus) not in indispensable:
            return CriterionReport(name, False, {"binomial": b.to_json()})
    return CriterionReport(name, True)


@dataclass(frozen=True)
class RobustnessVerdict:
    generalized_robust: bool
    robust: bool
    criteria: tuple[CriterionReport, ...]

    def to_json(self) -> dict:
        return {
            "generalized_robust": self.generalized_robust,
            "robust": self.robust,
            "criteria": [c.to_json() for c in self.criteria],
        }


def robustness_verdict(
    graph: Graph, analysis: GraphAnalysis, bundle: FiberBundle
) -> RobustnessVerdict:
    sets_rep = check_generalized_robust_sets(analysis)
    cond_rep = check_generalized_robust_conditions(analysis)
    circ_rep = check_generalized_robust_circuits(graph, analysis)
    if not (sets_rep.holds == cond_rep.holds == circ_rep.holds):
        raise InternalInvariantError(
            f"generalized robustness checkers disagree on {graph.digest()}: "
            f"sets={sets_rep.holds} conditions={cond_rep.holds} "
            f"circuits={circ_rep.holds}"
        )
    unique_rep = check_unique_generation(analysis, bundle)
    generalized = sets_rep.holds
    return RobustnessVerdict(
        generalized,
        generalized and unique_rep.holds,
        (sets_rep, cond_rep, circ_rep, unique_rep),
    )


def _division_free_witness(analysis: GraphAnalysis) -> dict | None:
    terms = [
        (b, side, mono)
        for b in analysis.universal_groebner.elements
        for side, mono in (("plus", b.plus), ("minus", b.minus))
    ]
    for b1, side1, m1 in terms:
        for b2, side2, m2 in terms:
            if b1 is b2:
                continue
            if all(x <= y for x, y in zip(m1, m2)):
                return {
                    "divisor": {"binomial": b1.to_json(), "term": side1},
                    "multiple": {"binomial": b2.to_json(), "term": side2},
                }
    return None


@dataclass(frozen=True)
class ImplicationSuite:
    """Structural consequences checked on one graph."""

    digest: str
    implications: tuple[CriterionReport, ...]
    observations: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.implications)

    def to_json(self) -> dict:
        return {
            "digest": self.digest,
            "ok": self.ok,
            "implications": [c.to_json() for c in self.implications],
            "observations": dict(self.observations),
        }


def implication_suite(
    graph: Graph, analysis: GraphAnalysis, bundle: FiberBundle
) -> ImplicationSuite:
    verdict = robustness_verdict(graph, analysis, bundle)
    sets_rep, cond_rep, circ_rep, unique_rep = verdict.criteria

    agree = CriterionReport(
        "checkers-agree",
        sets_rep.holds == cond_rep.holds == circ_rep.holds,
    )
    rob_gen = CriterionReport(
        "robust-implies-generalized",
        (not verdict.robust) or verdict.generalized_robust,
    )
    if verdict.robust:
        witness = _division_free_witness(analysis)
        division = CriterionReport(
            "robust-implies-division-free", witness is None, witness
        )
    else:
        division = CriterionReport("robust-implies-division-free", True)
    four_cycle = has_four_cycle(graph)
    if four_cycle:
        square_free = CriterionReport("no-four-cycle-unique-generation", True)
    else:
        ok = unique_rep.holds and (
            verdict.generalized_robust == verdict.robust
        )
        square_free = CriterionReport(
            "no-four-cycle-unique-generation",
            ok,
            None
            if ok
            else {
                "unique_generation": unique_rep.holds,
                "generalized_robust": verdict.generalized_robust,
                "robust": verdict.robust,
            },
        )

    observations = {
        "generalized_robust": verdict.generalized_robust,
        "robust": verdict.robust,
        "markov_equals_graver": sets_rep.holds,
        "ugb_equals_markov": analysis.universal_groebner.element_set()
        == analysis.universal_markov.element_set(),
        "indispensable_equals_markov": unique_rep.holds,
        "has_four_cycle": four_cycle,
    }
    return ImplicationSuite(
        graph.digest(),
        (agree, rob_gen, division, square_free),
        observations,
    )
