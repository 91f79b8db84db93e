"""Acceptance gate: worked examples, checker equivalence, oracle equivalence.

Each test prints one pass/fail line on the real stdout so the gate is
readable straight off a captured pytest run.  The random-corpus criteria
share one 200-graph corpus; the first of them pays for building it.
"""

import json
import time

import pytest

from toriclab.bases import analyze_graph, fiber_bundle, graph_config
from toriclab.corpus import random_connected_graphs
from toriclab.graphs import load_graph
from toriclab.binomials import make_basis_set
from toriclab.oracle import (
    analyze_config,
    config_from_rows,
    graver_bounded,
    markov_bundle,
    sample_groebner,
)
from toriclab.robustness import (
    check_generalized_robust_circuits,
    check_generalized_robust_conditions,
    check_generalized_robust_sets,
    circuit_rule_violations,
    implication_suite,
    robustness_verdict,
)
from toriclab.walks import cyclic_parities, sinks_and_strong_primitivity

from conftest import FIXTURES, fixture_path, support_minimal

CORPUS_SIZE = 200
CORPUS_SEED = 424242

_CORPUS: list = []


def corpus():
    if not _CORPUS:
        for g in random_connected_graphs(CORPUS_SIZE, seed=CORPUS_SEED):
            a = analyze_graph(g)
            _CORPUS.append((g, a, fiber_bundle(g, a)))
    return _CORPUS


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # hold the capture handle so announce() can print through it
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def announce(num: int, label: str, ok: bool, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label} ({seconds:.2f}s)"
    with _CAPTURE.disabled():
        print(line, flush=True)


def keys(binomials):
    return {(b.plus, b.minus) for b in binomials}


def test_criterion_1_k4():
    t0 = time.perf_counter()
    graph = load_graph(str(fixture_path("k4")))
    analysis = analyze_graph(graph)
    bundle = fiber_bundle(graph, analysis)
    verdict = robustness_verdict(graph, analysis, bundle)
    matching_fiber = next(
        fg for fg in bundle.graphs if fg.degree == (1, 1, 1, 1)
    )
    checks = (
        len(analysis.graver) == 3
        and len(analysis.universal_markov) == 3
        and len(analysis.universal_groebner) == 3
        and len(bundle.minimal_markov) == 2
        and matching_fiber.beta0 == 2
        and verdict.generalized_robust
        and not verdict.robust
    )
    elapsed = time.perf_counter() - t0
    ok = checks and elapsed < 1.0
    announce(1, "K4 counts, Betti number, generalized robust only", ok, elapsed)
    assert ok


def test_criterion_2_c4():
    t0 = time.perf_counter()
    graph = load_graph(str(fixture_path("c4")))
    analysis = analyze_graph(graph)
    bundle = fiber_bundle(graph, analysis)
    verdict = robustness_verdict(graph, analysis, bundle)
    sets = (
        analysis.circuits,
        analysis.graver,
        analysis.universal_groebner,
        analysis.universal_markov,
    )
    checks = (
        all([b.render() for b in s.elements] == ["e1*e2 - e3*e4"] for s in sets)
        and bundle.indispensable.element_set()
        == analysis.universal_markov.element_set()
        and verdict.robust
    )
    elapsed = time.perf_counter() - t0
    ok = checks and elapsed < 1.0
    announce(2, "C4 all four sets coincide and the ideal is robust", ok, elapsed)
    assert ok


def test_criterion_3_five_dim_example():
    t0 = time.perf_counter()
    with open(FIXTURES / "matrix" / "n5.json", "r", encoding="utf-8") as fh:
        config = config_from_rows(json.load(fh)["matrix"])
    quadrics = [
        "x5*x6 - x7*x8",
        "x3*x4 - x7*x8",
        "x3*x4 - x5*x6",
        "x1*x2 - x7*x8",
        "x1*x2 - x5*x6",
        "x1*x2 - x3*x4",
    ]
    oracle = analyze_config(config, box=1)
    samples = sample_groebner(
        config, oracle.universal_markov.elements, samples=50, seed=7
    )
    union = {b for run in samples for b in run.elements}
    checks = (
        [b.render("x") for b in oracle.graver] == quadrics
        and [b.render("x") for b in oracle.universal_markov.elements] == quadrics
        and len(oracle.minimal_markov) == 3
        and keys(oracle.minimal_markov) <= keys(oracle.graver)
        and oracle.indispensable == make_basis_set("indispensable", config.ncols, [])
        and keys(union) <= keys(oracle.graver)
    )
    elapsed = time.perf_counter() - t0
    ok = checks and elapsed < 5.0
    announce(3, "rank-5 point configuration: six quadrics, loose generators", ok, elapsed)
    assert ok


def test_criterion_4_checker_equivalence():
    t0 = time.perf_counter()
    disagreements = []
    for g, analysis, _ in corpus():
        verdicts = (
            check_generalized_robust_sets(analysis).holds,
            check_generalized_robust_conditions(analysis).holds,
            check_generalized_robust_circuits(g, analysis).holds,
        )
        if len(set(verdicts)) != 1:
            disagreements.append((g.digest(), verdicts))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and len(corpus()) >= 200 and elapsed < 600.0
    announce(
        4,
        f"three generalized-robustness checkers agree on {len(corpus())} graphs",
        ok,
        elapsed,
    )
    assert ok, disagreements[:5]


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for g, analysis, bundle in corpus():
        config = graph_config(g)
        bounded = graver_bounded(config, 2)
        if keys(bounded) != analysis.graver.element_set():
            mismatches.append((g.digest(), "graver"))
            continue
        if analysis.circuits.element_set() != support_minimal(keys(bounded)):
            mismatches.append((g.digest(), "circuits"))
            continue
        oracle = markov_bundle(config, bounded)
        if (
            oracle.universal_markov.element_set()
            != analysis.universal_markov.element_set()
        ):
            mismatches.append((g.digest(), "universal markov"))
            continue
        if oracle.indispensable.element_set() != bundle.indispensable.element_set():
            mismatches.append((g.digest(), "indispensable"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 900.0
    announce(
        5,
        f"walk sets match brute-force oracle on {len(corpus())} graphs",
        ok,
        elapsed,
    )
    assert ok, mismatches[:5]


def test_criterion_6_implications():
    t0 = time.perf_counter()
    violations = []
    for g, analysis, bundle in corpus():
        suite = implication_suite(g, analysis, bundle)
        if not suite.ok:
            violations.append(suite.to_json())
    elapsed = time.perf_counter() - t0
    ok = not violations
    announce(
        6,
        f"robustness implications hold on {len(corpus())} graphs",
        ok,
        elapsed,
    )
    assert ok, violations[:3]


def test_criterion_7_structural_witnesses():
    results = []
    start = time.perf_counter()

    t0 = time.perf_counter()
    g = load_graph(str(fixture_path("domino")))
    a = analyze_graph(g)
    violations = circuit_rule_violations(g, a)
    results.append(
        "R3" in violations
        and violations["R3"]["edge"] == "{3, 4}"
        and (time.perf_counter() - t0) < 1.0
    )

    t0 = time.perf_counter()
    g = load_graph(str(fixture_path("tri_square_tri_adjacent")))
    a = analyze_graph(g)
    verdict = robustness_verdict(g, a, fiber_bundle(g, a))
    m4_failures = [
        e for e in a.elements if "M4" in e.minimality_failures
    ]
    results.append(
        bool(m4_failures)
        and not verdict.generalized_robust
        and (time.perf_counter() - t0) < 1.0
    )

    t0 = time.perf_counter()
    g = load_graph(str(fixture_path("tri_edge_tri")))
    a = analyze_graph(g)
    element = a.elements[0]
    cut_edge = 3  # {3, 4}, the only edge joining the two triangles
    doubled = (
        element.binomial.plus[cut_edge] == 2
        or element.binomial.minus[cut_edge] == 2
    )
    dec = element.decomposition
    sinks = sinks_and_strong_primitivity(
        g, dec, cyclic_parities(g, element.walk, dec)
    )
    results.append(
        len(a.elements) == 1
        and doubled
        and sinks.strongly_primitive
        and (time.perf_counter() - t0) < 1.0
    )

    ok = all(results)
    announce(
        7,
        "structural fixtures produce the expected witnesses",
        ok,
        time.perf_counter() - start,
    )
    assert ok, results
