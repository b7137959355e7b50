"""Benchmark for gridletters: four workloads, each in fresh interpreters.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is in BENCHMARK.json):
  class_sweep       class_experiment(6, X, 3, verify_with_oracle=True), one
                    sweep per fresh interpreter
  lettering_ladder  lettericity of closed-form families and find_lettering(., 3)
                    on distinct larger graphs, negatives and positives
  gridding_ladder   find_gridding / geom_member on 4x4 and 3x3 matrices
  cli_cold          a fixed script of `python -m gridletters` commands

The items of every workload are fixed and checked against the golden file
perfbench/golden.json (recorded by perfbench/record_golden.py).  A pass is
three repetitions of the whole item set, each in fresh interpreters; the
seed sets the order of the items in each repetition, so the same seed gives
the same run.  `--seconds` sets the number of passes, one per 20 s (at
least one).  Times are CPU times scaled to a reference speed (speed.py).

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced pass, recorded by wrapping the
library's public functions (perfbench/tracer.py), and the tracing overhead
against an untraced pass over the same items.  Each run also writes its
full result to perfbench/out/.  Exit status 0 means the run completed,
whatever the checks found; 2 means the checkout holds no gridletters source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
WORKER = BENCH / "worker.py"
CLI_MAIN = BENCH / "cli_main.py"

WORKLOADS = ("class_sweep", "lettering_ladder", "gridding_ladder", "cli_cold")
PASS_SECONDS = 20
REPETITIONS_PER_PASS = 3
RUN_LIMIT_S = 170.0
# Timing metrics use CPU time of the single-threaded process doing the work,
# scaled to the reference speed of speed.py; plain CPU and wall-clock
# figures go to the result file.
CLOCKS = ("scaled", "cpu", "wall")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Functions whose per-layer numbers are reported, as <layer>.<function>.
_CALLS_SELF = (
    "letters.find_lettering", "letters.lettericity", "letters.canonical_decoders",
    "graphs.find_isomorphism", "graphs.vertex_orbits",
    "gridding.find_gridding", "gridding.universal_matrix",
    "geometry.embed_in_universal", "geometry.geom_member", "geometry.realize",
    "geometry.check_realization", "geometry.consistency",
    "pipeline.geometrize", "oracle.geom_member_oracle", "perm.inversion_graph",
)
_SELF_ONLY = (
    "pipeline.contract_gridded", "pipeline.reletter", "pipeline.reading_orders",
    "pipeline.regrid", "pipeline.assign_signs", "pipeline.class_experiment",
    "render.render", "render.render_drawing", "cli.main",
)
_FOUND = ("letters.find_lettering", "graphs.find_isomorphism", "gridding.find_gridding", "geometry.geom_member")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def run_worker(spec: dict, deadline: float) -> dict:
    spec = dict(spec, launched=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({spec['mode']}) did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({spec['mode']}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------- cli_cold

def write_cli_inputs(workdir: Path) -> None:
    """Input files of the CLI script, written from closed forms."""
    workdir.mkdir(parents=True, exist_ok=True)

    def graph_text(order, edges):
        return f"{order}\n" + "".join(f"{u} {v}\n" for u, v in edges)

    (workdir / "p6.txt").write_text(graph_text(6, [(i, i + 1) for i in range(1, 6)]))
    (workdir / "p7.txt").write_text(graph_text(7, [(i, i + 1) for i in range(1, 7)]))
    (workdir / "4k2.txt").write_text(graph_text(8, [(2 * i + 1, 2 * i + 2) for i in range(4)]))
    (workdir / "x.mat").write_text("-1 1\n1 -1\n")


# (argv after `python -m gridletters`, SVG file the command writes or None)
CLI_SCRIPT = (
    (["lettericity", "p6.txt"], None),
    (["lettericity", "p7.txt"], None),
    (["lettericity", "4k2.txt"], None),
    (["grid-check", "--perm", "5 2 4 3 6 1", "--matrix", "x.mat"], None),
    (["geom-check", "--perm", "3 6 4 5 7 2 1", "--matrix", "x.mat", "--svg", "geom.svg"], "geom.svg"),
    (["geometrize", "--perm", "9 7 5 2 4 3 6 1 8", "--matrix", "x.mat", "--k-max", "3",
      "--svg", "geometrize.svg"], "geometrize.svg"),
    (["render", "--target", "figure", "--matrix", "x.mat", "--svg", "figure.svg"], "figure.svg"),
    (["render", "--target", "drawing", "--matrix", "x.mat", "--perm", "1 7 3 5 4 6 8 2",
      "--svg", "drawing.svg"], "drawing.svg"),
    (["render", "--target", "gridding", "--matrix", "x.mat", "--perm", "5 2 4 3 6 1",
      "--svg", "gridding.svg"], "gridding.svg"),
    (["render", "--target", "hasse", "--matrix", "x.mat", "--perm", "3 6 4 5 7 2 1",
      "--svg", "hasse.svg"], "hasse.svg"),
    (["invgraph", "--perm", "9 7 5 2 4 3 6 1 8"], None),
    (["experiment", "--n-max", "5", "--matrix", "x.mat", "--letters", "3", "--verify"], None),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli_command(index: int, workdir: Path, deadline: float, mode: str = "probe") -> dict:
    """One command in a fresh interpreter.

    mode "probe" runs it through cli_main.py with the speed probe, "trace"
    through cli_main.py with the tracer, "plain" as `python -m gridletters`.
    Returns its times (CPU from the child's rusage, less the probe), its exit
    code, output digests and the in-process report.
    """
    argv, svg = CLI_SCRIPT[index]
    if svg is not None:
        (workdir / svg).unlink(missing_ok=True)
    report = workdir / f"report-{index}.json"
    report.unlink(missing_ok=True)
    env = dict(child_env(), PERFBENCH_REPORT=str(report), PERFBENCH_TRACE="1" if mode == "trace" else "0")
    launcher = ["-m", "gridletters"] if mode == "plain" else [str(CLI_MAIN)]
    before = children_cpu_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *launcher, *argv],
            capture_output=True, cwd=workdir, env=env, timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"cli command {argv[0]} did not finish in time") from exc
    wall = time.perf_counter() - start
    cpu = children_cpu_s() - before
    svg_path = workdir / svg if svg is not None else None
    result = {
        "wall": wall,
        "code": proc.returncode,
        "stdout": sha256(proc.stdout),
        "svg": sha256(svg_path.read_bytes()) if svg_path and svg_path.is_file() else None,
        "inside": json.loads(report.read_text()) if mode != "plain" else None,
    }
    if mode == "probe":
        result["cpu"] = cpu - result["inside"]["probe_s"]
        result["scaled"] = result["cpu"] * result["inside"]["factor"]
    return result


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_ok(result: dict, expected: dict) -> bool:
    return all(result[k] == expected[k] for k in ("code", "stdout", "svg"))


# ---------------------------------------------------------------- metrics

def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest sample; the maximum below 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_children_rss_mb() -> float:
    # ru_maxrss of RUSAGE_CHILDREN is the largest of all finished children (KiB).
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def stamp() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit_id(),
        "src_lines": src_lines,
    }


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setups, rates, latencies) -> dict:
    value, pct = tail(latencies)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "items_per_s": statistics.median(rates),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * value,
            "peak_rss_mb": peak_children_rss_mb(),
        },
        "tail_percentile": pct,
        "latency_samples": len(latencies),
        "setup_samples": len(setups),
        "repetitions": len(rates),
    }


def layer_metrics(traces: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from worker trace summaries, summed over workers."""
    per_fn: dict[str, list] = {}
    roots = wall = spans = setup_tables_s = 0.0
    repeats = repeat_base = 0
    for t in traces:
        for name, (calls, self_s, found) in t["functions"].items():
            entry = per_fn.setdefault(name, [0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += found
        setup_tables_s += t["setup_functions"].get("letters.canonical_decoders", (0, 0.0, 0))[1]
        roots += t["root_s"]
        wall += t["wall_s"]
        spans += t["spans"]
        repeats += t["repeats"][0]
        repeat_base += t["repeats"][1]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v[1] for k, v in per_fn.items() if k.split(".")[0] == layer)
    for name in _CALLS_SELF + _SELF_ONLY:
        calls, self_s, found = per_fn.get(name, (0, 0.0, 0))
        if name in _CALLS_SELF:
            metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        if name in _FOUND:
            metrics[f"{name}.found_ratio"] = found / calls if calls else 0.0
    metrics["letters.canonical_decoders.setup_self_s"] = setup_tables_s
    metrics["letters.find_lettering.repeat_share"] = repeats / repeat_base if repeat_base else 0.0
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["trace.self_sum_share"] = roots / wall if wall else 0.0
    metrics["trace.spans"] = spans
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name.endswith("spans") or name.endswith(".queries"):
        return "count"
    return "ratio"


def input_properties(items: list) -> dict:
    """Shares of negative lettering searches and of gridding members, with bases."""
    lettering = [exp for item, exp in items if item[0] == "find_lettering"]
    gridding = [exp for item, exp in items if item[0] in ("find_gridding", "geom_member")]
    return {
        "input.lettering.exhaustive_share": (
            sum(1 for exp in lettering if exp is None) / len(lettering) if lettering else 0.0
        ),
        "input.lettering.queries": len(lettering),
        "input.gridding.member_share": (
            sum(1 for exp in gridding if exp is not None and exp is not False) / len(gridding)
            if gridding else 0.0
        ),
        "input.gridding.queries": len(gridding),
    }


# ---------------------------------------------------------------- workloads

def seeded_order(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def run_untraced(workload: str, seed: int, seconds: int, golden: dict, deadline: float) -> dict:
    """REPETITIONS_PER_PASS measurements of the workload's whole item set per
    pass, each in its own fresh interpreter (per command for cli_cold)."""
    rng = random.Random(f"{workload}:{seed}")
    reps = max(1, round(seconds / PASS_SECONDS)) * REPETITIONS_PER_PASS
    setups: dict[str, list[float]] = {clock: [] for clock in CLOCKS}
    rates: dict[str, list[float]] = {clock: [] for clock in CLOCKS}
    latencies: dict[str, list[float]] = {clock: [] for clock in CLOCKS}
    attempted = failed = 0
    errors: list[str] = []
    if workload == "cli_cold":
        workdir = OUT / "cli"
        write_cli_inputs(workdir)
        expected = golden[workload]["commands"]
    for _ in range(reps):
        if workload == "cli_cold":
            res = run_worker({"mode": "setup"}, deadline)
            for clock in CLOCKS:
                setups[clock].append(res["setup"][clock])
            body = dict.fromkeys(CLOCKS, 0.0)
            for index in seeded_order(range(len(CLI_SCRIPT)), rng):
                cmd = run_cli_command(index, workdir, deadline)
                attempted += 1
                for clock in CLOCKS:
                    body[clock] += cmd[clock]
                    latencies[clock].append(cmd[clock])
                if not cli_ok(cmd, expected[index]):
                    failed += 1
                    errors.append(f"cli {CLI_SCRIPT[index][0][0]}: {cmd} != {expected[index]}")
            for clock in CLOCKS:
                rates[clock].append(len(CLI_SCRIPT) / body[clock])
            continue
        if workload == "class_sweep":
            spec = {"mode": "sweep", "golden": golden[workload]["report"]}
        else:
            spec = {"mode": "items", "items": seeded_order(golden[workload]["items"], rng)}
        res = run_worker(spec, deadline)
        for clock in CLOCKS:
            setups[clock].append(res["setup"][clock])
            rates[clock].append(res["attempted"] / res["body"][clock])
            latencies[clock].extend(res["latencies"][clock])
        attempted += res["attempted"]
        failed += res["failed"]
        errors.extend(res["errors"])

    result = end_to_end(setups["scaled"], rates["scaled"], latencies["scaled"])
    for clock in ("cpu", "wall"):
        result[clock] = end_to_end(setups[clock], rates[clock], latencies[clock])["metrics"]
    result.update(attempted=attempted, failed=failed, errors=errors[:20])
    return result


def run_traced(workload: str, seed: int, golden: dict, deadline: float) -> dict:
    """One untraced and one traced pass over the same items."""
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    attempted = failed = 0
    errors: list[str] = []
    traces = []
    if workload == "cli_cold":
        workdir = OUT / "cli"
        write_cli_inputs(workdir)
        expected = golden[workload]["commands"]
        order = list(range(len(CLI_SCRIPT)))
        random.Random(f"{workload}:{seed}").shuffle(order)
        untraced_s = traced_s = 0.0
        starts = []
        for index in order:
            untraced_s += run_cli_command(index, workdir, deadline, "plain")["wall"]
            res = run_cli_command(index, workdir, deadline, "trace")
            (workdir / f"report-{index}.jsonl").replace(spans_dir / f"{stem}-cmd{index}.jsonl")
            traced_s += res["wall"]
            attempted += 1
            if not cli_ok(res, expected[index]):
                failed += 1
                errors.append(f"cli {CLI_SCRIPT[index][0][0]}: {res} != {expected[index]}")
            trace = res["inside"]
            traces.append(trace)
            starts.append(res["wall"] - trace["main_s"])
        metrics = layer_metrics(traces, untraced_s, traced_s)
        metrics["cli.process_start_s"] = statistics.median(starts)
    else:
        if workload == "class_sweep":
            spec = {"mode": "sweep", "golden": golden[workload]["report"]}
        else:
            items = seeded_order(golden[workload]["items"], random.Random(f"{workload}:{seed}"))
            spec = {"mode": "items", "items": items}
        plain = run_worker(dict(spec, probe=False), deadline)
        traced = run_worker(dict(spec, trace=True, spans_path=str(spans_dir / f"{stem}.jsonl")), deadline)
        for res in (plain, traced):
            attempted += res["attempted"]
            failed += res["failed"]
            errors.extend(res["errors"])
        traces.append(traced["trace"])
        metrics = layer_metrics(traces, plain["body"]["wall"], traced["body"]["wall"])
        metrics["cli.process_start_s"] = 0.0
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors[:20]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridletters" / "__init__.py").is_file():
        print(f"no gridletters source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, golden, deadline)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, golden, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    result.update(workload=args.workload, seed=args.seed, trace=args.trace, stamp=stamp())
    result["inputs"] = input_properties(golden[args.workload].get("items", []))
    if args.trace:
        result["metrics"].update(result["inputs"])
    result["error_rate"] = failed / attempted
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    units = END_TO_END if not args.trace else {name: unit_of(name) for name in result["metrics"]}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(result['stamp'])}")
    for name, unit in units.items():
        print(f"{name:45s} {result['metrics'][name]:.6g} {unit}")
    print(f"{'error_rate':45s} {result['error_rate']:.6g} ratio ({failed} of {attempted})")
    if not args.trace:
        print(f"latency_tail_ms is p{result['tail_percentile']:.4g} of {result['latency_samples']} samples; "
              f"setup_s is the median of {result['setup_samples']} interpreters; "
              f"items_per_s is the median of {result['repetitions']} repetitions; times are scaled CPU time")
        for clock in ("cpu", "wall"):
            print(f"unscaled {clock}: " + ", ".join(f"{k} {v:.6g}" for k, v in result[clock].items()))
        for name, value in result["inputs"].items():
            print(f"{name:45s} {value:.6g}")
    for line in result["errors"]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
