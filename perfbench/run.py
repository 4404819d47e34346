"""The amecodes benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload family-large-q --seed 1 --seconds 28 --trace 0

Generates the workload's inputs from the seed (``gen.py``), runs one
warm-up pass over the batch and then timed passes until ``--seconds``
have passed, with a cold start (``setup_probe.py`` in a fresh
interpreter) after each pass and a calibration (``calib.py``) after each
pass and each cold start.  It checks every output of the warm-up pass
against the reference routes (``ref.py``) and every later pass against
the warm-up pass, and prints one JSON object as its last line.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` and
``batch_s`` are CPU times of the cold starts and the passes, scaled by
the run's calibrations to reference seconds, and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer self times, work counts and rates of the traced passes,
the tracing overhead, the wall time of a pass and the calibration time;
the spans are written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import os

# one thread: keep numpy's linear algebra from starting a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_STARTS = 9  # fewest measured cold starts per run
SETUP_TIMEOUT_S = 60

# spans whose self time is reported per layer, as "<span>_s"
LAYER_SPANS = [
    "stabtab.parse", "stabtab.emit",
    "codes.commutation", "codes.independence", "codes.entropy", "codes.distance",
    "reduction.canonicalize", "reduction.extract",
    "oracle.expand", "oracle.dense_distance", "oracle.kl", "oracle.entropy",
    "repeater.table", "repeater.cost_report",
]
COUNTS = ["codes.distance_tests", "oracle.errors_scanned", "repeater.grid_points"]


def cold_start(request: str) -> dict:
    """One run of setup_probe.py in a fresh interpreter: the child's step
    times and its CPU time up to its ready line."""
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
        child.stdin.write(request)
        child.stdin.close()
        line = child.stdout.readline()
        child.stdout.read()
        if child.wait(timeout=SETUP_TIMEOUT_S) != 0 or not line:
            raise RuntimeError("set-up probe failed")
    return json.loads(line)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="amecodes benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "amecodes" / "__init__.py").is_file():
        print(f"error: no amecodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    stages = {}
    t0 = time.perf_counter()
    inputs = gen.make_inputs(args.workload, args.seed)
    stages["inputs"] = time.perf_counter() - t0
    request = json.dumps({"tables": [*inputs.get("tables", {}).values(),
                                     *inputs.get("expand_tables", {}).values()],
                          "grid": args.workload == "optimal-k-grid"})
    cold_start(request)  # may compile bytecode; not measured
    setup = []

    import amecodes
    if Path(amecodes.__file__).resolve().parent != (SRC / "amecodes").resolve():
        print(f"error: imported amecodes from {amecodes.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    wl = workloads.build(args.workload, inputs)
    tr = Tracer()
    t0 = time.perf_counter()
    reference_outs = wl.run_pass(tr)  # warm-up pass, also the one checked
    reference = wl.summary(reference_outs)
    untraced, traced, layer_times = [], [], []
    mismatched = 0
    stages["warm-up"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    # a calibration follows every timed pass and cold start, so that the
    # calibrations sample the same stretch of time as they do (see calib.py)
    hosts = [calib.calibrate()]
    walls = []  # wall seconds of the untraced passes

    def timed(fn, *fn_args):
        """fn(*fn_args) and then a calibration: its result, CPU and wall seconds."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn(*fn_args)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        hosts.append(calib.calibrate())
        return result, cpu, wall

    while time.perf_counter() < deadline:
        for tracing in ((False, True) if args.trace else (False,)):
            tr.enabled = tracing
            root = len(tr.spans)
            outs, cpu, wall = timed(wl.run_pass, tr)
            if tracing:
                traced.append(cpu)
                layer_times.append(tr.self_times(root))
            else:
                untraced.append(cpu)
                walls.append(wall)
            tr.enabled = False
            mismatched += wl.summary(outs) != reference
        # cold starts are spread over the run, between passes, so that they
        # see the same machine as the passes do
        setup.append(timed(cold_start, request)[0])
    while len(setup) < SETUP_STARTS:
        setup.append(timed(cold_start, request)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    stages["passes"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fails, counts = wl.check(reference_outs)
    stages["checks"] = time.perf_counter() - t0
    if mismatched:
        fails.append(f"{mismatched} passes returned outputs that differ from the warm-up pass")
    for msg in fails[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes; median wall pass "
          f"{statistics.median(walls):.3f} s, median calibration "
          f"{statistics.median(hosts):.4f} s; stage seconds "
          + ", ".join(f"{k} {v:.2f}" for k, v in stages.items()), file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in ("amecodes.import_s", "catalog.load_s"):
            metrics[name] = metric(statistics.median(r[name] for r in setup), "s")
        layer = {name: statistics.median(t.get(name, 0.0) for t in layer_times)
                 for name in LAYER_SPANS}
        for name in LAYER_SPANS:
            metrics[f"{name}_s"] = metric(layer[name], "s")
        for name in COUNTS:
            metrics[name] = metric(counts[name], "count")

        def rate(count, spans):
            busy = statistics.median(sum(t.get(s, 0.0) for s in spans) for t in layer_times)
            return metric(counts[count] / busy if busy else 0.0, "1/s")

        metrics["codes.distance_tests_per_s"] = rate("codes.distance_tests", ["codes.distance"])
        metrics["oracle.errors_per_s"] = rate("oracle.errors_scanned",
                                              ["oracle.dense_distance", "oracle.kl"])
        metrics["repeater.points_per_s"] = rate("repeater.grid_points",
                                                ["repeater.table", "repeater.cost_report"])
        metrics["trace.batch_s"] = metric(calib.normalised(traced, hosts), "s")
        metrics["trace.overhead_s"] = metric(
            calib.normalised(traced, hosts) - calib.normalised(untraced, hosts), "s")
        metrics["batch.wall_s"] = metric(statistics.median(walls), "s")
        metrics["host.calibration_s"] = metric(statistics.median(hosts), "s")
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": metric(calib.normalised([r["cpu_s"] for r in setup], hosts), "s"),
            "batch_s": metric(calib.normalised(untraced, hosts), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": not fails, "attempted": tr.attempted, "failed": tr.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
