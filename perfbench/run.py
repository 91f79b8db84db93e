#!/usr/bin/env python3
"""toriclab benchmark: closed-loop CLI calls on seeded graph files.

    python3 perfbench/run.py --workload corpus --seed 424242 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds

One client, one thread: each operation is an in-process call of
``toriclab.cli.main(argv)`` on one graph file with stdout captured, and the
next starts when it returns.  A pass runs the operation once on every graph
of the workload; passes repeat until ``--seconds`` is spent.  Reported times
are wall times scaled to a reference machine speed, measured by a fixed
calibration loop around every operation (see calibration.py).  The last
stdout line is the JSON result; the lines before it are a readable summary
and a ``detail`` JSON line with the run context.  See README.md.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PINNED = os.path.join(HERE, "pinned.json")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import calibration  # noqa: E402

# Seconds per calibration loop at points through this process's set-up;
# setup_s is scaled to reference speed by their median.
SETUP_SPEEDS = [calibration.speed_now(3)]

WORKLOADS = ("corpus", "dense", "oracle")
# setup_s is the median over this many set-ups: this process's own and
# SETUP_ROUNDS - 1 child processes that set up the same workload and exit.
SETUP_ROUNDS = 5
# A traced run alternates untraced and traced passes, at least this many each.
MIN_TRACED_PASSES = 2
# graph_p90_ms is reported only when a pass has at least this many graphs,
# so that at least ten samples of a pass lie beyond it.
P90_MIN_GRAPHS = 100
# Calls are scaled to reference speed by the median of this many
# calibration loops around them (see calibration.py).
CALIBRATION_WINDOW = 6


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> None:
    """Import toriclab from this checkout's src/, never from an install."""
    if not os.path.isdir(os.path.join(SRC, "toriclab")):
        raise BenchmarkError(f"no toriclab sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import toriclab
    import toriclab.cli

    if not os.path.abspath(toriclab.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported toriclab from {toriclab.__file__}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_pinned(workload: str, seed: int) -> list[str] | None:
    with open(PINNED, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["sha256"]


class Workload:
    """Set-up of one workload: graphs generated, written, warmed up.

    The input files of a workload and seed live in one directory, which the
    set-up rounds of a run share: each round writes every file again, in
    place after the first.  On a shared 2-vCPU VM, creating a file costs
    0.2-0.8 ms of kernel time, varying threefold from run to run, which is
    no part of toriclab; rewriting one costs a tenth of that.
    """

    def __init__(self, name: str, seed: int, limit: int | None) -> None:
        import workloads
        from toriclab.graphs import graph_to_json

        self.name, self.seed = name, seed
        self.graphs = workloads.graphs(name, seed)[:limit]
        self.dir = os.path.join(WORK, f"{name}-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.ops = []
        for i, graph in enumerate(self.graphs):
            path = os.path.join(self.dir, f"g{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(graph_to_json(graph), fh)
            self.ops.append(workloads.argv(name, seed, path))
        SETUP_SPEEDS.append(calibration.speed_now(3))
        self.warmup = workloads.warmup_indices(name, self.graphs)
        for i in self.warmup:
            call(self.ops[i])
        SETUP_SPEEDS.append(calibration.speed_now(3))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def call(argv: list[str]) -> tuple[object, str, str]:
    """One operation: exit code (or the exception raised), stdout, stderr."""
    import toriclab.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = toriclab.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising call is a failed op
        rc = exc
    return rc, out.getvalue(), err.getvalue()


def run_pass(workload: Workload, tracer=None) -> dict:
    """Run the operation on every graph; time each call and the pass.

    ``times`` are wall times.  ``ref_times`` are the same at reference
    speed: a calibration runs before the first call and after every call,
    and each call is scaled by the median of the CALIBRATION_WINDOW
    calibrations nearest to it, so that one interrupted calibration does
    not move it.
    """
    gc.collect()
    clock = time.perf_counter
    result = {"times": [], "codes": [], "digests": [], "texts": [], "errors": []}
    cals = []
    if tracer is not None:
        tracer.install()
    try:
        result["start"] = clock()
        cals.append(calibration.loop())
        for i, argv in enumerate(workload.ops):
            if tracer is not None:
                tracer.graph = i
            t0 = clock()
            rc, text, err = call(argv)
            result["times"].append(clock() - t0)
            cals.append(calibration.loop())
            result["codes"].append(rc)
            result["digests"].append(hashlib.sha256(text.encode()).hexdigest())
            result["texts"].append(text)
            result["errors"].append(err)
    finally:
        if tracer is not None:
            tracer.uninstall()
    half = CALIBRATION_WINDOW // 2
    result["ref_times"] = [
        t * calibration.REF_S / statistics.median(cals[max(0, i + 1 - half): i + 1 + half])
        for i, t in enumerate(result["times"])
    ]
    result["ref_wall"] = sum(result["ref_times"])
    return result


def check_pass(workload: Workload, result: dict, reference: list[str] | None,
               first: dict | None) -> list[str]:
    """Failure messages of one pass, one per failed operation.

    An operation fails when it raises or exits non-zero, when its output
    differs from the pinned digest (default seed) or from the same graph's
    output in the run's first pass, or when the first pass's output fails
    the structural checks of ``workloads.check_output``.
    """
    import workloads

    failures = []
    for i, rc in enumerate(result["codes"]):
        digest = result["digests"][i]
        if rc != 0:
            why = f"exit {rc!r}: {result['errors'][i].strip()[:200]}"
        elif reference is not None and digest != reference[i]:
            why = "output differs from the pinned digest"
        elif first is not None and digest != first["digests"][i]:
            why = "output differs from the first pass"
        elif first is None:
            why = workloads.check_output(
                workload.name, workload.graphs[i], result["texts"][i]
            )
        else:
            why = None
        if why:
            failures.append(f"graph {i}: {why}")
    del result["texts"]  # only the first pass's outputs are parsed
    return failures


def child_setup_times(args, rounds: int) -> list[dict]:
    """Set the workload up in fresh processes; each reports its own set-up."""
    out = []
    for _ in range(rounds):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        if args.limit is not None:
            cmd += ["--limit", str(args.limit)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up round failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_times() -> dict:
    """This process's set-up so far: wall time since start, and the same at
    reference speed, scaled by the calibrations made along the way."""
    wall = time.perf_counter() - T_PROCESS
    return {"wall_setup_s": wall,
            "setup_s": wall * calibration.REF_S / statistics.median(SETUP_SPEEDS)}


def context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def run(args, pinned: list[str] | None = None) -> dict:
    """Set up, measure for args.seconds, check; returns the full result.

    ``pinned`` replaces the digests of pinned.json (smoke tests).
    """
    import_program()
    import tracing

    SETUP_SPEEDS.append(calibration.speed_now(3))
    workload = Workload(args.workload, args.seed, args.limit)
    try:
        own = setup_times()
        if args.setup_only:
            return own
        start_context = context()
        setups = [own]
        if not args.trace:
            setups += child_setup_times(args, SETUP_ROUNDS - 1)
        if pinned is None:
            pinned = load_pinned(args.workload, args.seed)
        reference = None if pinned is None else pinned[: len(workload.ops)]
        untraced, traced, tracers, failures = [], [], [], []
        t_begin = time.perf_counter()
        while True:
            result = run_pass(workload)
            failures += check_pass(workload, result, reference,
                                   untraced[0] if untraced else None)
            untraced.append(result)
            if args.trace:
                tracer = tracing.Tracer()
                result = run_pass(workload, tracer)
                failures += check_pass(workload, result, reference, untraced[0])
                traced.append(result)
                tracers.append(tracer)
            elapsed = time.perf_counter() - t_begin
            if args.trace and len(traced) < MIN_TRACED_PASSES:
                continue
            if elapsed + elapsed / len(untraced) > args.seconds:
                break
        n = len(workload.ops)
        op_times = [t for r in untraced for t in r["ref_times"]]
        wall_times = [t for r in untraced for t in r["times"]]
        attempted = sum(len(r["times"]) for r in untraced + traced)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_setup_s": statistics.median(s["wall_setup_s"] for s in setups),
            "graphs_per_s": statistics.median(n / r["ref_wall"] for r in untraced),
            "graph_p50_ms": statistics.median(op_times) * 1e3,
            "graph_p90_ms": (statistics.quantiles(op_times, n=10)[-1] * 1e3
                             if n >= P90_MIN_GRAPHS else None),
            "wall_graphs_per_s": statistics.median(n / sum(r["times"]) for r in untraced),
            "wall_graph_p50_ms": statistics.median(wall_times) * 1e3,
            "speed": statistics.median(
                t / w for r in untraced for t, w in zip(r["ref_times"], r["times"]) if w
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": len(failures) / attempted,
        }
        notes = []
        if args.trace:
            layer, counts_differ = layer_metrics(tracers, traced, untraced)
            metrics.update(layer)
            if counts_differ:
                notes.append("count metrics differ between traced passes")
            tracers[0].dump(
                os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"),
                traced[0]["start"],
            )
        return {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "graphs_per_pass": n, "untraced_passes": len(untraced),
            "traced_passes": len(traced), "op_samples": len(op_times),
            "setup_rounds": setups, "pinned_checked": reference is not None,
            "warmup": "untimed, in setup_s: the operation on the "
                      f"{len(workload.warmup)} graphs with the fewest edges",
            "attempted": attempted, "failures": failures, "notes": notes,
            "metrics": metrics,
            "context": {**start_context, "loadavg_end": list(os.getloadavg())},
        }
    finally:
        if not args.setup_only:  # the set-up rounds share the inputs
            workload.close()


def layer_metrics(tracers, traced, untraced) -> tuple[dict, bool]:
    """Per-layer metrics over the traced passes, and whether any count
    differs between them.  Counts are taken from the first traced pass,
    times (``*_s``) are medians over the traced passes."""
    per_pass = [tracer.metrics() for tracer in tracers]
    out: dict = {}
    counts_differ = False
    for name, first in per_pass[0].items():
        series = [p[name] for p in per_pass]
        if name.endswith("_s"):
            out[name] = statistics.median(series)
        else:
            out[name] = first
            counts_differ |= any(v != first for v in series)
    out["trace_overhead_frac"] = (
        statistics.median(r["ref_wall"] for r in traced)
        / statistics.median(r["ref_wall"] for r in untraced) - 1
    )
    return out, counts_differ


def emit(result: dict, spec: dict) -> int:
    """Print the summary, the detail line and the contract's result line."""
    group = "per_layer" if result["trace"] else "end_to_end"
    metrics = result["metrics"]
    missing = [m["name"] for m in spec[group] if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"BENCHMARK.json names unknown metrics: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[group]}
    failed = len(result["failures"])
    correct = failed == 0 and not result["notes"]
    print(f"# toriclab benchmark: workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} graphs/pass={result['graphs_per_pass']} "
          f"passes={result['untraced_passes']}+{result['traced_passes']} traced "
          f"op samples={result['op_samples']} pinned digests "
          f"{'checked' if result['pinned_checked'] else 'not checked (non-default seed)'}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(graph_p90_ms="ms", failed_frac="fraction", wall_graphs_per_s="graphs/s",
                 wall_graph_p50_ms="ms", wall_setup_s="s", speed="x reference")
    shown = [m["name"] for m in spec["end_to_end"]] + [
        "graph_p90_ms", "failed_frac", "wall_graphs_per_s", "wall_graph_p50_ms",
        "wall_setup_s", "speed"]
    if result["trace"]:
        shown = [m["name"] for m in spec["per_layer"]]
    for name in shown:
        value = metrics[name]
        text = "n/a (fewer than 100 graphs per pass)" if value is None else f"{value:.6g}"
        print(f"#   {name:<42} {text} {units[name]}")
    for message in result["failures"][:20]:
        print(f"# FAILED {message}")
    for note in result["notes"]:
        print(f"# FAILED {note}")
    print("detail " + json.dumps({k: v for k, v in result.items() if k != "failures"},
                                 sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Every workload at its default seed, each in its own process."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
        else:
            ok &= json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="use only the first N graphs (smoke tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            return run_all(args)
        if args.seed is None:
            import_program()
            import workloads

            args.seed = workloads.DEFAULT_SEEDS[args.workload]
        result = run(args)
        if args.setup_only:
            print(json.dumps(result))
            return 0
        return emit(result, spec)
    except (BenchmarkError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
