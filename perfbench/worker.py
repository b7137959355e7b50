"""One fresh interpreter of a benchmark run: set up, run the timed body, check.

Reads a JSON spec on stdin and prints one JSON line on stdout.  Spec keys:
  launched   time.monotonic() of the parent just before it started this
             process (CLOCK_MONOTONIC is system-wide on Linux)
  mode       "setup" (set up only), "sweep" (the acceptance sweep) or
             "items" (a list of [item, expected] queries)
  items      for mode "items"
  golden     for mode "sweep": the expected report counts
  trace      wrap the library's public functions and return per-function
             totals; spans go to `spans_path`.  No speed probe runs then.
  probe      false to run without the speed probe (default true)

Set-up is `import gridletters` and the first-use decoder tables, plus
interpreter start in the wall-clock figure.  Every time is reported three
ways: "scaled" (CPU time at the reference speed, see speed.py), "cpu" (CPU
time of this single-threaded process, probe excluded) and "wall".  Results
are checked after the timed body, with tracing removed, so checks never
show up as library spans.
"""
import gc
import json
import resource
import sys
import time

from speed import SpeedProbe

spec = json.load(sys.stdin)
probe = SpeedProbe(interval_s=0.02) if spec.get("probe", True) and not spec.get("trace") else None
if probe is not None:
    probe.start()


def cpu_now() -> float:
    """Process CPU time, without the probe's own kernel time."""
    return time.process_time() - (probe.spent if probe is not None else 0.0)


cpu0 = cpu_now()
import gridletters  # noqa: E402  (timed as set-up)
from gridletters import letters, pipeline  # noqa: E402

import workloads  # noqa: E402

tracer = None
if spec["mode"] == "items":
    inputs = [workloads.build(item) for item, _ in spec["items"]]
elif spec["mode"] == "sweep":
    matrix = gridletters.gridding.from_display_rows(workloads.X_ROWS)
if spec.get("trace"):
    from tracer import SETUP, Tracer, repeat_share

    tracer = Tracer()
    tracer.install()
    tracer.item = SETUP
for size in range(1, 5):
    letters.canonical_decoders(size)
setup_cpu = cpu_now() - cpu0
setup_end = time.perf_counter()
setup = {"cpu": setup_cpu, "wall": time.monotonic() - spec["launched"]}
if tracer is not None:
    tracer.item = -1

if spec["mode"] == "sweep":
    calls = [(pipeline.class_experiment, (
        workloads.SWEEP_N_MAX, matrix, workloads.SWEEP_LETTERS, True
    ))]
elif spec["mode"] == "items":
    calls = [(workloads.CALLS[item[0]], args) for (item, _), args in zip(spec["items"], inputs)]
else:
    calls = []

latencies = {"cpu": [], "wall": []}
spans = []  # (start, end) of each call, perf_counter
results = []
body_start = time.perf_counter()
for index, (fn, args) in enumerate(calls):
    if tracer is not None:
        tracer.item = index
    # Every call starts from a collected heap, so when the collector runs
    # inside a call does not depend on the order of the calls before it.
    gc.collect()
    cpu, wall = cpu_now(), time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a crash is a failed item, counted below
        result = exc
    latencies["cpu"].append(cpu_now() - cpu)
    spans.append((wall, time.perf_counter()))
    latencies["wall"].append(spans[-1][1] - wall)
    results.append(result)
body_end = time.perf_counter()
body = {"cpu": sum(latencies["cpu"]), "wall": sum(latencies["wall"])}

if probe is not None:
    probe.stop()
    whole_run = probe.factor()
    setup["scaled"] = setup["cpu"] * (probe.factor(until=setup_end) or whole_run)
    body_factor = probe.factor(since=body_start, until=body_end) or whole_run
    # A call long enough to hold several samples is scaled by its own.
    latencies["scaled"] = [
        t * (probe.factor(start, end, at_least=3) or body_factor)
        for t, (start, end) in zip(latencies["cpu"], spans)
    ]
    body["scaled"] = sum(latencies["scaled"])
out = {"setup": setup, "body": body, "latencies": latencies, "attempted": 0, "failed": 0, "errors": []}

if tracer is not None:
    tracer.uninstall()
    out["trace"] = tracer.summary()
    out["trace"]["wall_s"] = body["wall"]
    repeats, calls_seen = repeat_share(tracer.lettering_graphs)
    out["trace"]["repeats"] = [repeats, calls_seen]
    if spec.get("spans_path"):
        tracer.write(spec["spans_path"], body_start)

if spec["mode"] == "sweep":
    golden = spec["golden"]
    report = results[0]
    out["attempted"] = golden["scanned"]
    if isinstance(report, Exception):
        out["failed"] = golden["scanned"]
        out["errors"].append(repr(report))
    else:
        counts = {
            "scanned": report.scanned,
            "skipped_ungriddable": report.skipped_ungriddable,
            "skipped_lettericity": report.skipped_lettericity,
            "rows": len(report.rows),
            "ok": report.ok,
        }
        out["attempted"] = report.scanned
        out["failed"] = sum(1 for row in report.rows if not row.ok)
        if counts != golden:
            out["failed"] = report.scanned
            out["errors"].append(f"sweep counts {counts} != golden {golden}")
elif spec["mode"] == "items":
    for (item, expected), args, result in zip(spec["items"], inputs, results):
        out["attempted"] += 1
        if isinstance(result, Exception):
            ok = False
        else:
            try:
                ok = workloads.check(item, args, result, expected)
            except Exception as exc:  # a result the check cannot read is wrong
                result, ok = exc, False
        if not ok:
            out["failed"] += 1
            out["errors"].append(f"{workloads.key(item)[:120]}: {result!r:.200}")

out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(out))
