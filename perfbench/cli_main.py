"""`python -m gridletters ARGS`, measured from inside the command's process.

Writes a JSON report to the path in PERFBENCH_REPORT.  By default a speed
probe (speed.py) runs alongside the command and the report holds the
probe's own CPU time and the scale factor.  With PERFBENCH_TRACE=1 the
benchmark's tracer wraps the library instead and the report holds the
per-function totals and the duration of the cli.main span; spans go next
to the report (.jsonl).  Exits with the command's own exit code.
"""
import json
import os
import runpy
import sys
import time

report_path = os.environ["PERFBENCH_REPORT"]

if os.environ.get("PERFBENCH_TRACE") == "1":
    import gridletters.cli
    from tracer import Tracer, repeat_share

    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        code = gridletters.cli.main(sys.argv[1:])
    finally:
        wall = time.perf_counter() - origin
        tracer.uninstall()
        summary = tracer.summary()
        summary["wall_s"] = wall
        summary["main_s"] = sum(end - start for name, start, end, *_ in tracer.spans if name == "cli.main")
        summary["repeats"] = list(repeat_share(tracer.lettering_graphs))
        with open(report_path, "w") as out:
            json.dump(summary, out)
        tracer.write(os.path.splitext(report_path)[0] + ".jsonl", origin)
    sys.exit(code)

from speed import SpeedProbe  # noqa: E402

probe = SpeedProbe(interval_s=0.01)
probe.start()
try:
    runpy.run_module("gridletters", run_name="__main__", alter_sys=True)
finally:
    probe.stop()
    with open(report_path, "w") as out:
        json.dump({"probe_s": probe.spent, "factor": probe.factor()}, out)
