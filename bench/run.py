"""Run one lfac benchmark workload at a seed and print its metrics.

    python3 bench/run.py --workload queries --seed 3 --seconds 15 --trace 0

Run it from the root of a checkout: lfac is imported from ./src, the CLI
cases and goldens are read from ./tests, and the metric names and units
from ./BENCHMARK.json.  With ``--trace 0`` it measures the end-to-end
metrics for ``--seconds`` seconds; with ``--trace 1`` it runs the workload's
fixed trace inputs untraced once and traced twice, and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from refclock import CHILD_PRELUDE, RefClock, scale

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5      # fresh interpreters per setup_s measurement
IMPORT_REPEATS = 3     # fresh interpreters per import metric in a trace
WARM_S = 1.0           # warm-up before the timed loop

# child programs; each prints its timings in seconds.  The setup child times
# the calibration kernel just before and just after its imports, after one
# untimed run that warms the fresh interpreter.
SETUP_CODE = CHILD_PRELUDE + """
kernel()
before = kernel_time()
t0 = perf_counter()
import lfac
t1 = perf_counter()
lfac.default_catalog()
t2 = perf_counter()
print(t1 - t0, t2 - t1, before, kernel_time())
"""
SYMPY_CODE = """\
from time import perf_counter
t0 = perf_counter()
import sympy
print(perf_counter() - t0)
"""


class BenchmarkError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


# ----------------------------------------------------------------- helpers

def check_checkout(root: Path) -> str | None:
    for need in ("BENCHMARK.json", "src/lfac/__init__.py",
                 "tests/test_cli.py", "tests/golden"):
        if not (root / need).exists():
            return "%s not found under %s: run from the root of an lfac " \
                   "checkout" % (need, root)
    return None


def child_timings(root: Path, code: str, repeats: int) -> list[list[float]]:
    """Run ``code`` in ``repeats`` fresh interpreters; each prints floats."""
    from workloads import child_env
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=child_env(root), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError("setup child failed: " + proc.stderr)
        out.append([float(x) for x in proc.stdout.split()])
    return out


def setup_seconds(root: Path, repeats: int = SETUP_REPEATS) -> tuple:
    """Median time of a fresh interpreter to import lfac and load the
    default catalog, in reference-speed and in wall seconds."""
    ref, wall = [], []
    for a, b, before, after in child_timings(root, SETUP_CODE, repeats):
        ref.append((a + b) * scale(before, after))
        wall.append(a + b)
    return statistics.median(ref), statistics.median(wall)


def environment(root: Path) -> dict:
    import sympy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit or "unknown"}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def run_for(run_item, items, seconds: float, clock: RefClock,
            round_size: int = 1):
    """Run whole rounds of ``round_size`` items, so every run sees the same
    mix of item kinds, until another round at the mean round time so far
    would end past ``seconds``; at least one round.  The calibration kernel
    is timed between items, and an item's ops are scaled by the kernel
    times just before and after it, unless an op brings a scale measured
    closer to it.  Returns the ops, each op's reference-speed latency, and
    their summed latency (busy time) in wall and in reference-speed
    seconds."""
    ops, ref_lat = [], []
    wall = ref = 0.0
    t_start = perf_counter()
    t_end = t_start + seconds
    before = clock.tick()
    for n, item in enumerate(items, 1):
        new = run_item(item)
        after = clock.tick()
        item_scale = scale(before, after)
        before = after
        ops += new
        lat = [op.latency_s * (op.scale or item_scale) for op in new]
        ref_lat += lat
        wall += sum(op.latency_s for op in new)
        ref += sum(lat)
        if n % round_size == 0:
            now = perf_counter()
            if now + (now - t_start) * round_size / n > t_end:
                break
    return ops, ref_lat, wall, ref


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --------------------------------------------------------------- timed run

def timed_run(wl, seed: int, seconds: float, root: Path,
              setup_repeats: int = SETUP_REPEATS) -> dict:
    """End-to-end metrics with tracing off."""
    from workloads import FAILED, REFUSED
    clock = RefClock()
    # warm on another stream, so the timed inputs are not already cached
    run_for(wl.run_item, wl.stream(seed + 7919), WARM_S, clock)
    ops, ref_lat, wall_s, ref_s = run_for(wl.run_item, wl.stream(seed),
                                          seconds, clock, wl.round_size)
    rss = peak_rss_mb(children=wl.name == "cli_cold")
    setup_ref, setup_wall = setup_seconds(root, setup_repeats)
    wall_lat = [op.latency_s for op in ops]
    failed = [op for op in ops if op.status == FAILED]
    metrics = {
        "setup_s": setup_ref,
        "ops_per_s": len(ops) / ref_s,
        "latency_p50_ms": statistics.median(ref_lat) * 1000.0,
        "latency_p90_ms": p90(ref_lat) * 1000.0,
        "peak_rss_mb": rss,
    }
    notes = {
        "samples": len(ops),
        "failed_share": len(failed) / len(ops),
        "refused": sum(op.status == REFUSED for op in ops),
        "wall": {"setup_s": setup_wall, "ops_per_s": len(ops) / wall_s,
                 "latency_p50_ms": statistics.median(wall_lat) * 1000.0,
                 "latency_p90_ms": p90(wall_lat) * 1000.0},
        "host_speed": {"median": statistics.median(clock.speeds()),
                       "min": min(clock.speeds()), "max": max(clock.speeds()),
                       "calibrations": len(clock.times)},
        "failures": ["%s: %s" % (op.tag, op.output) for op in failed[:3]],
    }
    if wl.name.startswith("verify_"):
        notes["%s_trials_per_s" % wl.suite] = metrics["ops_per_s"]
    return {"attempted": len(ops), "failed": len(failed), "metrics": metrics,
            "notes": notes}


# -------------------------------------------------------------- traced run

def traced_run(wl, seed: int, root: Path,
               import_repeats: int = IMPORT_REPEATS) -> dict:
    """Per-layer metrics: the fixed trace inputs run untraced, twice traced,
    and untraced again; verdicts, outputs and counts must agree.  The
    overhead compares the mean traced pass with the mean untraced one."""
    from tracer import Tracer
    from workloads import FAILED
    layers = {name: sys.modules["lfac." + name] for name in (
        "scalar", "chars", "splitrat", "wdrep", "catalog", "poles", "dsl",
        "render", "verify", "cli")}

    items = wl.trace_items(seed)
    clock = RefClock()

    def one_pass(tracer=None):
        """The ops, and the pass's busy time in reference-speed seconds."""
        ops, _, _, ref_s = run_for(
            lambda item: wl.trace_run_item(item, tracer), items,
            float("inf"), clock)
        return ops, ref_s

    one_pass()                       # warm: caches fill on these inputs
    base, base_s = one_pass()
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(layers)
        try:
            ops, secs = one_pass(tracer)
        finally:
            tracer.uninstall()
        passes.append((tracer, ops, secs))
    (tracer, traced_ops, traced_s), (again, again_ops, again_s) = passes
    after, after_s = one_pass()

    def answers(ops):
        return [(op.status, op.output, op.tag) for op in ops]
    if not answers(base) == answers(traced_ops) == answers(again_ops) \
            == answers(after):
        raise BenchmarkError("traced and untraced passes disagree")
    if tracer.counts != again.counts:
        diff = sorted(k for k in set(tracer.counts) | set(again.counts)
                      if tracer.counts[k] != again.counts[k])
        raise BenchmarkError("counts differ between two traced passes "
                             "over the same inputs: %s" % ", ".join(diff))

    untraced_s = (base_s + after_s) / 2
    traced_s = (traced_s + again_s) / 2
    metrics = tracer.layer_metrics()
    setups = child_timings(root, SETUP_CODE, import_repeats)
    metrics["import.lfac_s"] = statistics.median(s[0] for s in setups)
    metrics["catalog.load_s"] = statistics.median(s[1] for s in setups)
    metrics["import.sympy_s"] = statistics.median(
        t for (t,) in child_timings(root, SYMPY_CODE, import_repeats))

    failed = [op for op in base if op.status == FAILED]
    attempted = len(base)
    main_s = process_s = slowest_ms = 0.0
    slowest_tag = ""
    if wl.name == "cli_cold":
        main_s = statistics.fmean(op.latency_s for op in base)
        cold = [op for item in items for op in wl.run_item(item)]
        failed += [op for op in cold if op.status == FAILED]
        attempted += len(cold)
        process_s = statistics.fmean(op.latency_s for op in cold) \
            - metrics["import.lfac_s"] - main_s
    if wl.name.startswith("verify_"):
        slow = max(base, key=lambda op: op.latency_s)
        slowest_ms, slowest_tag = slow.latency_s * 1000.0, slow.tag
    metrics.update({
        "cli.main_s": main_s,
        "cli.process_s": process_s,
        "verify.slowest_trial_ms": slowest_ms,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        "trace.spans": len(tracer.spans),
    })
    notes = {"failures": ["%s: %s" % (op.tag, op.output) for op in failed[:3]]}
    if slowest_tag:
        notes["slowest_trial"] = slowest_tag
    return {"attempted": attempted, "failed": len(failed), "metrics": metrics,
            "notes": notes, "tracer": tracer}


# -------------------------------------------------------------------- main

def emit(result: dict, declared: list[dict], head: dict) -> str:
    """Print the human-readable lines; return the final JSON line."""
    for key, val in head.items():
        print("%s: %s" % (key, json.dumps(val, sort_keys=True)))
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%s = %r %s" % (m["name"], value, m["unit"]))
    for key, val in result["notes"].items():
        print("%s: %s" % (key, json.dumps(val)))
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print("error: " + problem, file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import lfac
    src_lfac = (root / "src" / "lfac").resolve()
    if Path(lfac.__file__).resolve().parent != src_lfac:
        print("error: lfac imported from %s, not from ./src" % lfac.__file__,
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, root)
    try:
        if args.trace:
            result = traced_run(wl, args.seed, root)
        else:
            result = timed_run(wl, args.seed, args.seconds, root)
    except BenchmarkError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    head = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "env": environment(root), "size": wl.size()}
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_file = out / ("trace-%s-seed%d.json" % (wl.name, args.seed))
        result["tracer"].write(trace_file, dict(head, lfac=lfac.__version__,
                                                metrics=result["metrics"]))
        result["notes"]["trace_file"] = str(trace_file.relative_to(root))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(emit(result, declared, head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
