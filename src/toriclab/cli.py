"""Command line interface.

Subcommands map onto the public API: the four set computations, a full
analysis with optional brute-force cross-check, robustness checks, the
generic matrix oracle, and corpus sweeps.  JSON output is canonical and
byte-identical across reruns of the same command: ``_canonical_json`` writes
exactly what ``json.dumps(report, sort_keys=True, indent=2)`` would.  What
the sets of a report share is decided here alone, by ``_sets_json``, and
the encoder writes each container that recurs in a report once.
Wall-clock timings are printed to stderr in text mode only, so they never
perturb the reports.  ``main`` pauses the cyclic garbage collector while a
command runs, from its first stage until its report is written, and leaves
it as it found it.

Exit codes: 0 success, 2 unreadable input (a graph, matrix or sidecar file
that does not decode or parse, nests too deeply, or holds an integer past
4,300 digits), 3 scale guard or recursion depth, 4 internal invariant or
expectation breach, 5 negative matrix entries.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
import time
from collections import Counter
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path
from sys import getrefcount

from .bases import FiberBundle, GraphAnalysis, analyze_graph, fiber_bundle
from .binomials import BasisSet
from .corpus import random_connected_graphs
from .errors import InternalInvariantError, ScaleGuardError, read_named
from .graphs import Graph, GraphError, graph_to_json, load_graph
from .oracle import (
    ConfigError,
    NegativeEntryError,
    ToricConfig,
    analyze_config,
    candidate_degrees,
    config_from_rows,
    graver_bounded,
    sample_groebner,
)
from .robustness import (
    ImplicationSuite,
    RobustnessVerdict,
    implication_suite,
    robustness_verdict,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SCALE = 3
EXIT_INVARIANT = 4
EXIT_NEGATIVE = 5

# the closing line of `suite` text output counts the instances under each key
_SUITE_TALLIES = (
    "generalized",
    "robust",
    "unique-gen",
    "generalized-not-robust",
    "unique-gen-not-robust",
)

# the verdict flags a `suite` sidecar may state, besides its "counts"
_SIDECAR_FLAGS = ("generalized_robust", "robust")

_SET_ATTRS = {
    "circuits": "circuits",
    "graver": "graver",
    "ugb": "universal_groebner",
    "markov": "universal_markov",
}


class _Timings:
    """Stage durations, reported on stderr in text mode only."""

    def __init__(self) -> None:
        self.stages: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def stage(self, label: str):
        t0 = time.perf_counter()
        yield
        self.stages.append((label, time.perf_counter() - t0))

    def dump(self) -> None:
        for label, seconds in self.stages:
            print(f"[time] {label}: {seconds * 1000:.1f} ms", file=sys.stderr)


def _input_json(graph: Graph) -> dict:
    obj = graph_to_json(graph)
    obj["digest"] = graph.digest()
    obj["edge_labels"] = [graph.edge_label(i) for i in range(len(graph.edges))]
    return obj


def _pipeline(
    graph: Graph, force: bool, timings: _Timings
) -> tuple[GraphAnalysis, FiberBundle, RobustnessVerdict, ImplicationSuite]:
    """Walk analysis, fiber bundle, verdict and implications of one graph.

    It runs with the cyclic garbage collector paused by ``main``.
    """
    with timings.stage("walk enumeration"):
        analysis = analyze_graph(graph, force=force)
    with timings.stage("fiber graphs"):
        bundle = fiber_bundle(graph, analysis)
    with timings.stage("robustness"):
        verdict = robustness_verdict(graph, analysis, bundle)
        suite = implication_suite(graph, analysis, bundle)
    return analysis, bundle, verdict, suite


def _sets(analysis: GraphAnalysis, bundle: FiberBundle) -> dict[str, BasisSet]:
    """The five reported sets, in report order."""
    return {
        "circuits": analysis.circuits,
        "graver": analysis.graver,
        "universal_groebner": analysis.universal_groebner,
        "universal_markov": analysis.universal_markov,
        "indispensable": bundle.indispensable,
    }


def _sets_json(sets: Sequence[BasisSet], prefix: str = "e") -> list[dict]:
    """Each set's ``to_json``, with one body per binomial and one element
    dict per binomial and annotation dict, and the annotation dicts as tags.

    So a subset's elements are its parent's dicts, and a circuit's element
    holds its Graver element's exponents.  The tables are keyed by identity
    and dropped on return: only what recurs in the report is held twice,
    and the encoder keeps the text of nothing else.
    """
    bodies: dict[int, dict] = {}
    elements: dict[tuple[int, int], dict] = {}
    reports = []
    for s in sets:
        items = []
        for b, ann in zip(s.elements, s.annotations):
            element = elements.get((id(b), id(ann)))
            if element is None:
                body = bodies.get(id(b))
                if body is None:
                    body = bodies[id(b)] = b.to_json(prefix)
                element = elements[id(b), id(ann)] = {**body, "tags": ann}
            items.append(element)
        reports.append(
            {
                "kind": s.kind,
                "variables": s.variables,
                "count": len(s),
                "elements": items,
            }
        )
    return reports


def _counts(analysis: GraphAnalysis, bundle: FiberBundle) -> dict:
    return {key: len(s) for key, s in _sets(analysis, bundle).items()}


# the label in text output of each Groebner-sample containment flag
_WITHIN_LABELS = {
    "within_universal_groebner": "UGB",
    "within_bounded_graver": "bounded graver",
}


def _check_sampling(args) -> None:
    """Reject a ``--box`` below 1 or a negative ``--samples`` before any work,
    with the errors ``graver_bounded`` and ``sample_groebner`` raise."""
    if args.box < 1:
        raise ValueError("box must be at least 1")
    if args.samples < 0:
        raise ValueError("samples must be nonnegative")


def _groebner_section(
    config: ToricConfig, generators, args, key: str, within, prefix: str
) -> dict:
    """The distinct elements of the sampled reduced Groebner bases, sorted,
    and under ``key`` whether each one's ``(plus, minus)`` lies in ``within``."""
    runs = sample_groebner(config, generators, args.samples, args.seed)
    union = sorted(
        {b for run in runs for b in run.elements},
        key=lambda b: b.sort_key(),
    )
    return {
        "samples": args.samples,
        "seed": args.seed,
        "distinct_elements": [b.to_json(prefix) for b in union],
        key: all((b.plus, b.minus) in within for b in union),
    }


def _render_groebner(g: dict, indent: str = "") -> None:
    (key,) = g.keys() & _WITHIN_LABELS
    print(
        f"{indent}groebner samples: {g['samples']} (seed {g['seed']}), "
        f"distinct elements {len(g['distinct_elements'])}, "
        f"within {_WITHIN_LABELS[key]}: {'yes' if g[key] else 'no'}"
    )


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# formatters of the JSON scalars, by exact type
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _lone_refcount() -> int:
    """What ``getrefcount`` reads, in the encoder's loops, for a container
    that only its parent holds: the parent's slot, the loop variable and
    the call's argument, as this interpreter counts them."""
    for value in [[]]:
        return getrefcount(value)


_LONE_REFCOUNT = _lone_refcount()


def _canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    Takes dicts with ``str`` keys, lists, tuples, ``str``, ``int``, ``float``,
    ``bool`` and ``None``, by exact type; anything else raises ``TypeError``.
    CPython's ``json`` encodes with ``indent`` in pure Python; this builds each
    container with one join, formats scalar children without recursing, and
    writes a container met more than once at one indentation from the text
    of its first time.  A nesting level costs one interpreter frame (plain
    loops, no comprehensions), so a sidecar value as deep as the JSON reader
    accepts still prints.
    """
    fmt = _SCALAR_JSON.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    return _Document().write(obj, "\n")


class _Document:
    """One top-level ``_canonical_json`` call.

    A report is a DAG: the sets share element, tag and exponent objects.  A
    container that something besides its parent holds may recur, so its
    text is kept, keyed by identity and line width, until the call returns.
    The report holds every container until then, so no identity is reused
    meanwhile.
    """

    def __init__(self) -> None:
        self.memo: dict[tuple[int, int], str] = {}

    def write(self, obj, newline: str) -> str:
        """The text of the container ``obj`` at the indentation that
        ``newline`` (a line break and the indentation) gives."""
        inner = newline + "  "
        if type(obj) is dict:
            if not obj:
                return "{}"
            parts = []
            for key in sorted(obj):
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                value = obj[key]
                fmt = _SCALAR_JSON.get(type(value))
                if fmt is not None:
                    text = fmt(value)
                elif getrefcount(value) > _LONE_REFCOUNT:
                    node = (id(value), len(inner))
                    text = self.memo.get(node)
                    if text is None:
                        text = self.memo[node] = self.write(value, inner)
                else:
                    text = self.write(value, inner)
                parts.append(f"{encode_basestring_ascii(key)}: {text}")
            # one f-string copies the body once, where `+` would thrice
            body = ("," + inner).join(parts)
            return f"{{{inner}{body}{newline}}}"
        if type(obj) in (list, tuple):
            if not obj:
                return "[]"
            parts = []
            for value in obj:
                fmt = _SCALAR_JSON.get(type(value))
                if fmt is not None:
                    text = fmt(value)
                elif getrefcount(value) > _LONE_REFCOUNT:
                    node = (id(value), len(inner))
                    text = self.memo.get(node)
                    if text is None:
                        text = self.memo[node] = self.write(value, inner)
                else:
                    text = self.write(value, inner)
                parts.append(text)
            body = ("," + inner).join(parts)
            return f"[{inner}{body}{newline}]"
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )


def _emit(report: dict, args: argparse.Namespace, timings: _Timings, renderer) -> None:
    if args.format == "json":
        print(_canonical_json(report))
    else:
        renderer(report)
        timings.dump()


def _tag_text(tags: dict) -> str:
    parts = [k for k in ("circuit", "mixed", "minimal") if tags.get(k)]
    failures = tags.get("minimality_failures") or []
    if failures:
        parts.append("fails=" + ",".join(failures))
    if "shape" in tags:
        parts.append(f"shape={tags['shape']}")
    return " ".join(parts)


def _render_basis(obj: dict, indent: str = "  ") -> None:
    print(f"{obj['kind']}: {obj['count']} elements")
    for el in obj["elements"]:
        tag = _tag_text(el.get("tags", {}))
        suffix = f"  [{tag}]" if tag else ""
        print(f"{indent}{el['text']}{suffix}")


def _render_robustness(verdict: dict, implications: dict) -> None:
    """The verdict's and the implication suite's criteria, one line each."""
    sections = (
        (
            f"generalized_robust: {'yes' if verdict['generalized_robust'] else 'no'}\n"
            f"robust: {'yes' if verdict['robust'] else 'no'}",
            verdict["criteria"],
        ),
        (
            f"implications: {'ok' if implications['ok'] else 'FAILED'}",
            implications["implications"],
        ),
    )
    for header, criteria in sections:
        print(header)
        for c in criteria:
            line = f"  {c['name']}: {'yes' if c['holds'] else 'no'}"
            if c.get("witness"):
                line += f"  witness={json.dumps(c['witness'], sort_keys=True)}"
            print(line)


def _render_input(obj: dict) -> None:
    print(
        f"graph {obj['digest']}: {obj['vertices']} vertices, "
        f"{len(obj['edges'])} edges"
    )


def _cmd_set(args: argparse.Namespace) -> int:
    timings = _Timings()
    graph = load_graph(args.path)
    with timings.stage("analyze"):
        analysis = analyze_graph(graph, force=args.force)
    basis = getattr(analysis, _SET_ATTRS[args.set_name])
    report = {
        "schema": 1,
        "command": args.set_name,
        "input": _input_json(graph),
        "set": _sets_json([basis])[0],
    }

    def render(rep: dict) -> None:
        _render_input(rep["input"])
        _render_basis(rep["set"])

    _emit(report, args, timings, render)
    return EXIT_OK


def _oracle_section(
    graph: Graph, analysis: GraphAnalysis, config: ToricConfig, args
) -> dict:
    bounded = graver_bounded(config, args.box)
    bounded_keys = {(b.plus, b.minus) for b in bounded}
    walk_keys = analysis.graver.element_set()
    matches = bounded_keys == walk_keys
    section: dict = {
        "box": args.box,
        "bounded_graver_count": len(bounded),
        "graver_matches": matches,
    }
    if not matches and args.box < 2 and bounded_keys < walk_keys:
        # a cut edge enters a walk binomial squared, so a box below 2
        # misses those walks by the caller's choice; nothing broke
        raise ValueError(
            f"--box {args.box} leaves out {len(walk_keys - bounded_keys)} of "
            f"{len(walk_keys)} Graver elements, which have an exponent above "
            f"{args.box}; box 2 is exact for graphs"
        )
    if not matches:
        raise InternalInvariantError(
            f"oracle cross-check of graph {graph.digest()}: bounded Graver "
            f"enumeration (box={args.box}) disagrees with the walk enumeration; "
            "box >= 2 is exact for graphs"
        )
    if args.samples:
        try:
            section["groebner"] = _groebner_section(
                config,
                analysis.universal_markov.elements,
                args,
                "within_universal_groebner",
                analysis.universal_groebner.element_set(),
                "e",
            )
        except InternalInvariantError as exc:
            raise InternalInvariantError(
                f"oracle cross-check of graph {graph.digest()}: Groebner "
                f"sample: {exc}"
            ) from exc
        if not section["groebner"]["within_universal_groebner"]:
            raise InternalInvariantError(
                f"oracle cross-check of graph {graph.digest()}: a sampled "
                "reduced Groebner basis left the universal Groebner basis"
            )
    return section


def _cmd_analyze(args: argparse.Namespace) -> int:
    _check_sampling(args)
    timings = _Timings()
    graph = load_graph(args.path)
    analysis, bundle, verdict, suite = _pipeline(graph, args.force, timings)
    sets = _sets(analysis, bundle)
    report = {
        "schema": 1,
        "command": "analyze",
        "input": _input_json(graph),
        "sets": dict(zip(sets, _sets_json(sets.values()))),
        "betti": [fg.to_json() for fg in bundle.graphs if fg.is_betti],
        "minimal_markov_size": len(bundle.minimal_markov),
        "verdict": verdict.to_json(),
        "implications": suite.to_json(),
    }
    if args.oracle:
        with timings.stage("oracle cross-check"):
            report["oracle"] = _oracle_section(graph, analysis, bundle.config, args)

    def render(rep: dict) -> None:
        _render_input(rep["input"])
        for obj in rep["sets"].values():
            _render_basis(obj)
        print(f"betti degrees: {len(rep['betti'])}")
        print(f"minimal markov size: {rep['minimal_markov_size']}")
        _render_robustness(rep["verdict"], rep["implications"])
        if "oracle" in rep:
            oracle = rep["oracle"]
            print(
                f"oracle: box={oracle['box']} "
                f"graver_matches={'yes' if oracle['graver_matches'] else 'no'}"
            )
            if "groebner" in oracle:
                _render_groebner(oracle["groebner"], "  ")

    _emit(report, args, timings, render)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    timings = _Timings()
    graph = load_graph(args.path)
    analysis, bundle, verdict, suite = _pipeline(graph, args.force, timings)
    report = {
        "schema": 1,
        "command": "check",
        "input": _input_json(graph),
        "counts": _counts(analysis, bundle),
        "verdict": verdict.to_json(),
        "implications": suite.to_json(),
    }

    def render(rep: dict) -> None:
        _render_input(rep["input"])
        counts = rep["counts"]
        print(
            "counts: "
            + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        _render_robustness(rep["verdict"], rep["implications"])

    _emit(report, args, timings, render)
    return EXIT_OK


def _parse_matrix(text: str) -> ToricConfig:
    """The configuration in rows of integers, or in JSON with a "matrix" key."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ConfigError('matrix JSON needs a "matrix" key')
        return config_from_rows(obj["matrix"])
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.replace(",", " ").split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ConfigError("no matrix rows in input")
    return config_from_rows(rows)


def _cmd_matrix(args: argparse.Namespace) -> int:
    _check_sampling(args)
    timings = _Timings()
    config = read_named(args.path, _parse_matrix)
    with timings.stage("bounded graver"):
        oracle = analyze_config(config, args.box)
    indispensable = oracle.indispensable.elements
    graver_keys = {(b.plus, b.minus) for b in oracle.graver}
    report = {
        "schema": 1,
        "command": "matrix",
        "input": config.to_json(),
        "analysis": {
            "box": args.box,
            "graver": [b.to_json("x") for b in oracle.graver],
            "fibers": [g.to_json() for g in oracle.graphs if g.is_betti],
            "minimal_markov": [b.to_json("x") for b in oracle.minimal_markov],
            "universal_markov": _sets_json([oracle.universal_markov], "x")[0],
            # each indispensable degree holds exactly one element
            "indispensable": {
                "degrees": [list(d) for d in candidate_degrees(indispensable)],
                "elements": [b.to_json("x") for b in indispensable],
            },
        },
        "observations": {
            "markov_equals_graver": oracle.universal_markov.element_set()
            == graver_keys,
            "indispensable_equals_markov": oracle.indispensable.element_set()
            == oracle.universal_markov.element_set(),
            "minimal_markov_size": len(oracle.minimal_markov),
        },
    }
    if args.samples:
        with timings.stage("groebner samples"):
            report["groebner"] = _groebner_section(
                config,
                oracle.universal_markov.elements,
                args,
                "within_bounded_graver",
                graver_keys,
                "x",
            )

    def render(rep: dict) -> None:
        analysis = rep["analysis"]
        print(
            f"matrix: {len(rep['input']['matrix'])} rows x "
            f"{len(rep['input']['matrix'][0])} columns, box={analysis['box']}"
        )
        print(f"bounded graver: {len(analysis['graver'])} elements")
        for el in analysis["graver"]:
            print(f"  {el['text']}")
        print(f"betti fibers: {len(analysis['fibers'])}")
        print(f"minimal markov size: {rep['observations']['minimal_markov_size']}")
        _render_basis(analysis["universal_markov"])
        print(
            f"indispensable: {len(analysis['indispensable']['elements'])} elements"
        )
        obs = rep["observations"]
        print(
            "observations: "
            f"markov_equals_graver={'yes' if obs['markov_equals_graver'] else 'no'} "
            "indispensable_equals_markov="
            f"{'yes' if obs['indispensable_equals_markov'] else 'no'}"
        )
        if "groebner" in rep:
            _render_groebner(rep["groebner"])

    _emit(report, args, timings, render)
    return EXIT_OK


def _load_expectation(path: Path) -> dict | None:
    """The graph's ``<stem>.expect.json`` sidecar, if there is one.

    It must be an object; its ``counts``, if given, an object too.
    """
    sidecar = path.with_name(path.stem + ".expect.json")
    if not sidecar.exists():
        return None
    expect = read_named(sidecar, json.loads)
    if not isinstance(expect, dict) or not isinstance(expect.get("counts", {}), dict):
        raise ValueError(
            f"{sidecar}: expectation must be a JSON object whose 'counts', "
            "if given, is an object"
        )
    return expect


def _instance_record(
    name: str, graph: Graph, expect: dict | None, force: bool
) -> dict:
    analysis, bundle, verdict, suite = _pipeline(graph, force, _Timings())
    record = {
        "name": name,
        "digest": graph.digest(),
        "vertices": graph.vertex_count,
        "edges": len(graph.edges),
        "counts": _counts(analysis, bundle),
        "generalized_robust": verdict.generalized_robust,
        "robust": verdict.robust,
        "implications_ok": suite.ok,
    }
    # a flag must be a JSON boolean and a count an integer, so a value of
    # another type mismatches even where Python's == would let it pass; a
    # key with no value in the record is read as null
    expect = expect or {}
    expected = [
        (key, wanted, record[key] if key in _SIDECAR_FLAGS else None, bool)
        for key, wanted in expect.items()
        if key != "counts"
    ] + [
        (f"counts.{key}", wanted, record["counts"].get(key), int)
        for key, wanted in expect.get("counts", {}).items()
    ]
    mismatches = {
        key: {"expected": wanted, "actual": actual}
        for key, wanted, actual, kind in expected
        if type(wanted) is not kind or wanted != actual
    }
    if mismatches:
        record["expect_mismatch"] = mismatches
    record["ok"] = suite.ok and not mismatches
    return record


def _cmd_suite(args: argparse.Namespace) -> int:
    timings = _Timings()
    instances: list[tuple[str, Graph, dict | None]] = []
    if args.path:
        root = Path(args.path)
        if not root.is_dir():
            raise OSError(f"{args.path} is not a directory")
        files = sorted(
            p
            for p in root.iterdir()
            if p.suffix in (".txt", ".json")
            and not p.name.endswith(".expect.json")
        )
        if not files:
            raise GraphError(f"no graph files in {args.path}")
        for p in files:
            instances.append((p.name, load_graph(str(p)), _load_expectation(p)))
    else:
        graphs = random_connected_graphs(
            args.count, args.seed, args.max_vertices, args.max_edges
        )
        width = len(str(max(args.count - 1, 0)))
        for i, g in enumerate(graphs):
            instances.append((f"seed{args.seed}-{i:0{width}d}", g, None))

    with timings.stage(f"{len(instances)} instances"):
        records = [
            _instance_record(name, graph, expect, args.force)
            for name, graph, expect in instances
        ]

    ok = all(r["ok"] for r in records)
    report = {
        "schema": 1,
        "command": "suite",
        "ok": ok,
        "instances": records,
    }

    def render(rep: dict) -> None:
        tally: Counter[str] = Counter()
        for r in rep["instances"]:
            counts = r["counts"]
            # indispensable elements lie in every minimal generating set, so
            # equal counts mean the ideal has a unique minimal generating set
            unique = counts["indispensable"] == counts["universal_markov"]
            flags = [
                flag
                for flag, on in (
                    ("generalized", r["generalized_robust"]),
                    ("robust", r["robust"]),
                    ("unique-gen", unique),
                )
                if on
            ]
            tally.update(flags)
            if not r["robust"]:
                tally.update(f"{flag}-not-robust" for flag in flags)
            line = (
                f"{r['name']:<28} v={r['vertices']} e={r['edges']} "
                f"c={counts['circuits']} gr={counts['graver']} "
                f"ugb={counts['universal_groebner']} "
                f"mk={counts['universal_markov']} ind={counts['indispensable']} "
                f"[{' '.join(flags) if flags else '-'}]"
            )
            if not r["ok"]:
                line += "  MISMATCH" if "expect_mismatch" in r else "  FAILED"
            print(line)
        print(
            f"suite: {len(rep['instances'])} instances, ok={rep['ok']}, "
            + " ".join(f"{key}={tally[key]}" for key in _SUITE_TALLIES)
        )

    _emit(report, args, timings, render)
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriclab",
        description=(
            "Circuits, Graver bases, universal Groebner and universal Markov "
            "bases of graph toric ideals, with robustness checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, force: bool = True) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
        if force:
            p.add_argument(
                "--force",
                action="store_true",
                help="bypass the edge-count enumeration guard",
            )

    def sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--box", type=int, default=2, help="brute-force exponent bound")
        p.add_argument(
            "--samples",
            type=int,
            default=0,
            help="random weight orders to sample (analyze: with --oracle)",
        )
        p.add_argument("--seed", type=int, default=0, help="sampling seed")

    for name, attr in _SET_ATTRS.items():
        p = sub.add_parser(name, help=f"compute the {attr} set of a graph")
        p.add_argument("path", help="graph file (edge list or JSON)")
        common(p)
        p.set_defaults(func=_cmd_set, set_name=name)

    p = sub.add_parser(
        "analyze", help="all four sets, robustness verdict, implications"
    )
    p.add_argument("path", help="graph file (edge list or JSON)")
    common(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against bounded brute-force enumeration",
    )
    sampling(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", help="robustness verdict and implications")
    p.add_argument("path", help="graph file (edge list or JSON)")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "matrix", help="bounded toric analysis of a nonnegative matrix"
    )
    p.add_argument("path", help="matrix file (rows of integers, or JSON)")
    common(p, force=False)
    sampling(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser(
        "suite", help="sweep a directory of graphs or a random corpus"
    )
    p.add_argument(
        "path",
        nargs="?",
        default=None,
        help="directory of graph files; omitted: seeded random corpus",
    )
    common(p)
    p.add_argument(
        "--count", type=int, default=25, help="random corpus size"
    )
    p.add_argument("--seed", type=int, default=0, help="random corpus seed")
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--max-edges", type=int, default=11)
    p.set_defaults(func=_cmd_suite)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, from the
    first stage until its report is written, and the collector is left as
    it was found on every exit: the elements, reports and their text hold
    no reference cycles, yet each collection would traverse all of them
    again as they age.
    """
    # Building the parser costs far more than parsing, so build it once.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except NegativeEntryError as exc:
        print(f"toriclab: error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ScaleGuardError as exc:
        print(f"toriclab: error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except RecursionError:
        print(
            "toriclab: error: input goes past the enumeration's recursion depth",
            file=sys.stderr,
        )
        return EXIT_SCALE
    except MemoryError:
        print(
            "toriclab: error: input needs more memory than is free", file=sys.stderr
        )
        return EXIT_SCALE
    except InternalInvariantError as exc:
        print(f"toriclab: invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, ValueError) as exc:
        print(f"toriclab: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
