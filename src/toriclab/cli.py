"""Command line interface.

Subcommands map onto the public API: the four set computations, a full
analysis with optional brute-force cross-check, robustness checks, the
generic matrix oracle, and corpus sweeps.  JSON output is canonical and
byte-identical across reruns of the same command; wall-clock timings are
printed to stderr in text mode only, so they never perturb the reports.

Exit codes: 0 success, 2 unreadable input, 3 scale guard or recursion
depth, 4 internal invariant or expectation breach, 5 negative matrix entries.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

from .bases import (
    FiberBundle,
    GraphAnalysis,
    analyze_graph,
    fiber_bundle,
    graph_config,
)
from .binomials import BasisSet, BinomialError
from .corpus import random_connected_graphs
from .errors import InternalInvariantError, ScaleGuardError
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
from .walks import WalkError

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
    """Walk analysis, fiber bundle, verdict and implications of one graph."""
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


def _counts(analysis: GraphAnalysis, bundle: FiberBundle) -> dict:
    return {key: len(s) for key, s in _sets(analysis, bundle).items()}


def _groebner_union(config: ToricConfig, generators, samples: int, seed: int) -> list:
    """Distinct elements of the sampled reduced Groebner bases, sorted."""
    runs = sample_groebner(config, generators, samples, seed)
    return sorted(
        {b for run in runs for b in run.elements},
        key=lambda b: b.sort_key(),
    )


def _emit(report: dict, args: argparse.Namespace, timings: _Timings, renderer) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
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
        "set": basis.to_json(),
    }

    def render(rep: dict) -> None:
        _render_input(rep["input"])
        _render_basis(rep["set"])

    _emit(report, args, timings, render)
    return EXIT_OK


def _oracle_section(
    graph: Graph,
    analysis: GraphAnalysis,
    box: int,
    samples: int,
    seed: int,
) -> dict:
    config = graph_config(graph)
    bounded = graver_bounded(config, box)
    bounded_keys = {(b.plus, b.minus) for b in bounded}
    walk_keys = analysis.graver.element_set()
    matches = bounded_keys == walk_keys
    section: dict = {
        "box": box,
        "bounded_graver_count": len(bounded),
        "graver_matches": matches,
    }
    if not matches and box < 2 and bounded_keys < walk_keys:
        # a cut edge enters a walk binomial squared, so a box below 2
        # misses those walks by the caller's choice; nothing broke
        raise ValueError(
            f"--box {box} leaves out {len(walk_keys - bounded_keys)} of "
            f"{len(walk_keys)} Graver elements, which have an exponent above "
            f"{box}; box 2 is exact for graphs"
        )
    if not matches:
        raise InternalInvariantError(
            f"oracle cross-check of graph {graph.digest()}: bounded Graver "
            f"enumeration (box={box}) disagrees with the walk enumeration; "
            "box >= 2 is exact for graphs"
        )
    if samples > 0:
        union = _groebner_union(
            config, analysis.universal_markov.elements, samples, seed
        )
        ugb_keys = analysis.universal_groebner.element_set()
        inside = all((b.plus, b.minus) in ugb_keys for b in union)
        section["groebner"] = {
            "samples": samples,
            "seed": seed,
            "distinct_elements": [b.to_json() for b in union],
            "within_universal_groebner": inside,
        }
        if not inside:
            raise InternalInvariantError(
                f"oracle cross-check of graph {graph.digest()}: a sampled "
                "reduced Groebner basis left the universal Groebner basis"
            )
    return section


def _cmd_analyze(args: argparse.Namespace) -> int:
    timings = _Timings()
    graph = load_graph(args.path)
    analysis, bundle, verdict, suite = _pipeline(graph, args.force, timings)
    report = {
        "schema": 1,
        "command": "analyze",
        "input": _input_json(graph),
        "sets": {
            key: s.to_json() for key, s in _sets(analysis, bundle).items()
        },
        "betti": [fg.to_json() for fg in bundle.graphs if fg.is_betti],
        "minimal_markov_size": len(bundle.minimal_markov),
        "verdict": verdict.to_json(),
        "implications": suite.to_json(),
    }
    if args.oracle:
        with timings.stage("oracle cross-check"):
            report["oracle"] = _oracle_section(
                graph, analysis, args.box, args.samples, args.seed
            )

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
                g = oracle["groebner"]
                print(
                    f"  groebner samples: {g['samples']} "
                    f"(seed {g['seed']}), distinct elements "
                    f"{len(g['distinct_elements'])}, within UGB: "
                    f"{'yes' if g['within_universal_groebner'] else 'no'}"
                )

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


def _named_json_error(path, exc: json.JSONDecodeError) -> json.JSONDecodeError:
    """The decoder's error, with the file it read named in the message."""
    return json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos)


def _load_matrix(path: str):
    """The file's configuration; a decode or parse error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            if not isinstance(obj, dict) or "matrix" not in obj:
                raise ConfigError('matrix JSON needs a "matrix" key')
            rows = obj["matrix"]
        else:
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
    except json.JSONDecodeError as exc:
        raise _named_json_error(path, exc) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except RecursionError as exc:  # JSON nested past the interpreter's stack
        raise ConfigError(f"{path}: JSON nests too deeply to read") from exc
    except ValueError as exc:  # ConfigError, NegativeEntryError, a bad token
        raise type(exc)(f"{path}: {exc}") from exc


def _cmd_matrix(args: argparse.Namespace) -> int:
    timings = _Timings()
    config = _load_matrix(args.path)
    with timings.stage("bounded graver"):
        oracle = analyze_config(config, args.box)
    indispensable = oracle.indispensable.elements
    report = {
        "schema": 1,
        "command": "matrix",
        "input": config.to_json(),
        "analysis": {
            "box": args.box,
            "graver": [b.to_json("x") for b in oracle.graver],
            "fibers": [g.to_json() for g in oracle.graphs if g.is_betti],
            "minimal_markov": [b.to_json("x") for b in oracle.minimal_markov],
            "universal_markov": oracle.universal_markov.to_json("x"),
            # each indispensable degree holds exactly one element
            "indispensable": {
                "degrees": [list(d) for d in candidate_degrees(indispensable)],
                "elements": [b.to_json("x") for b in indispensable],
            },
        },
        "observations": {
            "markov_equals_graver": oracle.universal_markov.element_set()
            == {(b.plus, b.minus) for b in oracle.graver},
            "indispensable_equals_markov": oracle.indispensable.element_set()
            == oracle.universal_markov.element_set(),
            "minimal_markov_size": len(oracle.minimal_markov),
        },
    }
    if args.samples > 0:
        with timings.stage("groebner samples"):
            union = _groebner_union(
                config, oracle.universal_markov.elements, args.samples, args.seed
            )
        graver_keys = {(b.plus, b.minus) for b in oracle.graver}
        report["groebner"] = {
            "samples": args.samples,
            "seed": args.seed,
            "distinct_elements": [b.to_json("x") for b in union],
            "within_bounded_graver": all(
                (b.plus, b.minus) in graver_keys for b in union
            ),
        }

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
            g = rep["groebner"]
            print(
                f"groebner samples: {g['samples']} (seed {g['seed']}), "
                f"distinct elements {len(g['distinct_elements'])}, "
                f"within bounded graver: "
                f"{'yes' if g['within_bounded_graver'] else 'no'}"
            )

    _emit(report, args, timings, render)
    return EXIT_OK


def _load_expectation(path: Path) -> dict | None:
    """The graph's ``<stem>.expect.json`` sidecar, if there is one.

    It must be an object; its ``counts``, if given, an object too.
    """
    sidecar = path.with_name(path.stem + ".expect.json")
    if not sidecar.exists():
        return None
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            expect = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _named_json_error(sidecar, exc) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{sidecar}: {exc}") from exc
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
    mismatches = {}
    if expect:
        for key in ("generalized_robust", "robust"):
            if key in expect and expect[key] != record[key]:
                mismatches[key] = {
                    "expected": expect[key],
                    "actual": record[key],
                }
        for key, wanted in expect.get("counts", {}).items():
            if key not in record["counts"]:
                mismatches[f"counts.{key}"] = {
                    "expected": wanted,
                    "actual": None,
                }
            elif record["counts"][key] != wanted:
                mismatches[f"counts.{key}"] = {
                    "expected": wanted,
                    "actual": record["counts"][key],
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="bypass the edge-count enumeration guard",
        )

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
    p.add_argument("--box", type=int, default=2, help="oracle exponent bound")
    p.add_argument(
        "--samples",
        type=int,
        default=0,
        help="random weight orders to sample (with --oracle)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", help="robustness verdict and implications")
    p.add_argument("path", help="graph file (edge list or JSON)")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "matrix", help="bounded toric analysis of a nonnegative matrix"
    )
    p.add_argument("path", help="matrix file (rows of integers, or JSON)")
    p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p.add_argument("--box", type=int, default=2, help="exponent bound")
    p.add_argument(
        "--samples", type=int, default=0, help="random weight orders to sample"
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
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
    # Building the parser costs far more than parsing, so build it once.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
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
    except InternalInvariantError as exc:
        print(f"toriclab: invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (
        GraphError,
        ConfigError,
        BinomialError,
        WalkError,
        json.JSONDecodeError,
        OSError,
        ValueError,
    ) as exc:
        print(f"toriclab: error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
