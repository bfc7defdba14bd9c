#!/usr/bin/env python3
"""Runs the moqo benchmark: builds moqo_bench, runs workloads, reports.

    python3 perfbench/run.py                      # every workload, seed 2016
    python3 perfbench/run.py --workload anytime_large --seed 7 \\
        --seconds 25 --trace 0                    # one run, JSON last line
    python3 perfbench/run.py --smoke              # every workload, tiny scale
    python3 perfbench/run.py --write-reference    # regenerate references

The first run configures and builds perfbench/ (which builds the library
and shardd from src/) into $CARGO_TARGET_DIR, or .bench_build when unset.
Each run prints every metric as `workload metric value unit` and writes
one JSON file under <build dir>/results/. With --workload the last stdout
line is the run's result object and the exit code is 0 whenever a result
was produced; without it the exit code is 1 if any run failed a check.
"""

import argparse
import glob
import json
import os
import signal
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import benchstats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("anytime_large", "anytime_small", "service_local",
             "service_remote")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2.0

# Per-layer metrics summarized from sample arrays: name -> (samples, q).
LAYER_PERCENTILES = {
    "sched.submit_us_p50": ("sched.submit_us", 50),
    "sched.submit_us_p99": ("sched.submit_us", 99),
    "sched.deliver_ms": ("sched.deliver_ms", 50),
    "sched.queue_ms_p50": ("sched.queue_ms", 50),
    "sched.queue_ms_p99": ("sched.queue_ms", 99),
    "sched.run_ms_p50": ("sched.run_ms", 50),
    "router.submit_us_p50": ("router.submit_us", 50),
    "router.submit_us_p99": ("router.submit_us", 99),
    "remote.overhead_ms_p50": ("remote.overhead_ms", 50),
    "remote.overhead_ms_p99": ("remote.overhead_ms", 99),
    "cache.hit_lat_ms": ("cache.hit_lat_ms", 50),
    "cache.miss_lat_ms": ("cache.miss_lat_ms", 50),
    "gen.late_ms_p99": ("gen.late_ms", 99),
}


class BenchError(Exception):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures and builds moqo_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("moqo sources (src/) not found next to perfbench/")
    tree = os.path.join(build_dir, "perfbench")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", tree, "--target", "moqo_bench",
                      "-j", "4"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed; see " + log_path)
    return os.path.join(tree, "moqo_bench")


def run_binary(args):
    """Runs moqo_bench in its own process group; its stdout goes to our
    stderr so our stdout carries only the report."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds moqo_bench and any shardd it spawned.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("moqo_bench timed out after %ds" % RUN_TIMEOUT_S)
    if code != 0:
        raise BenchError("moqo_bench exited with code %d" % code)


def end_to_end(raw):
    kind = raw["config"]["kind"]
    scalars = raw["scalars"]
    latencies = raw["samples"].get("lat_ms", [])
    metrics = {
        "setup_s": benchstats.median(raw["setup_s"]),
        "peak_rss_mb": scalars["peak_rss_mb"],
        "lat_p50_ms": benchstats.percentile(latencies, 50),
        "lat_p99_ms": benchstats.percentile(latencies, 99),
    }
    if kind == "anytime":
        # K-iteration optimizations per second: queries over the sum over
        # queries of the median time to K across repetitions. Iterations
        # per second would be the same measurement times K.
        ttk_s = sum(benchstats.median(q["ttk_ms"])
                    for q in raw["queries"]) / 1000.0
        metrics["sat_qps"] = len(raw["queries"]) / ttk_s
        # Per query and checkpoint, the median over repetitions.
        n = raw["config"]["checkpoints"]
        alphas = []
        for q in raw["queries"]:
            for c in range(n):
                alphas.append(benchstats.median(q["alpha_ckpt"][c::n]))
        metrics["alpha_gmean"] = benchstats.clipped_gmean(alphas)
    else:
        metrics["sat_qps"] = scalars["sat_qps"]
        metrics["alpha_gmean"] = benchstats.clipped_gmean(raw["alpha"])
    return metrics


def per_layer(raw, names):
    """Every per-layer metric; 0 for a layer this workload does not run."""
    scalars = raw["scalars"]
    samples = raw["samples"]
    metrics = {}
    for name in names:
        if name in LAYER_PERCENTILES:
            key, q = LAYER_PERCENTILES[name]
            metrics[name] = benchstats.percentile(samples.get(key, []), q)
        elif name == "rmq.alpha_at_k":
            metrics[name] = benchstats.clipped_gmean(
                samples.get(name, []))
        else:
            metrics[name] = scalars.get(name, 0.0)
    return metrics


def checks_of(raw, trace, smoke):
    checks = dict(raw["checks"])
    latencies = raw["samples"].get("lat_ms", [])
    if not trace and not smoke:
        checks["lat_p99_has_%d_beyond" % benchstats.MIN_BEYOND] = (
            benchstats.percentile_supported(len(latencies), 99))
    return checks


def generator_late_p99(raw):
    """p99 lateness of the open-loop sends, in ms (0 without a generator).

    Above 1 ms the run's latencies include stalls of the load generator
    itself. That is reported, not failed: on a shared host the generator
    thread is sometimes descheduled for milliseconds, and no operation of
    the program failed."""
    return benchstats.percentile(raw["samples"].get("gen.late_ms", []), 99)


def next_free(path_stem):
    n = 0
    while os.path.exists("%s-%d.json" % (path_stem, n)):
        n += 1
    return "%s-%d.json" % (path_stem, n)


def run_workload(binary, bench, workload, seed, seconds, trace, smoke,
                 work_dir, results_dir):
    raw_path = os.path.join(work_dir, "raw", "%s-%d-t%d.json"
                            % (workload, seed, trace))
    socket_dir = os.path.join(work_dir, "sock")
    for d in (os.path.dirname(raw_path), socket_dir, results_dir):
        os.makedirs(d, exist_ok=True)
    # A killed run leaves its shardd sockets behind.
    for stale in glob.glob(os.path.join(socket_dir, "*.sock")):
        os.remove(stale)
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%s" % seconds, "--out=" + raw_path,
            "--reference-dir=" + os.path.join(ROOT, "perfbench", "reference"),
            # Relative: a Unix socket path must fit in 108 bytes.
            "--socket-dir=" + os.path.relpath(socket_dir, ROOT)]
    if trace:
        trace_dir = os.path.join(work_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args.append("--trace=" + os.path.join(
            trace_dir, "%s-%d.json" % (workload, seed)))
    if smoke:
        args.append("--smoke")
    run_binary(args)
    with open(raw_path) as f:
        raw = json.load(f)

    if trace:
        specs = bench["per_layer"]
        values = per_layer(raw, [m["name"] for m in specs])
    else:
        specs = bench["end_to_end"]
        values = end_to_end(raw)
    checks = checks_of(raw, trace, smoke)
    checks["metrics_complete"] = (
        sorted(values) == sorted(m["name"] for m in specs))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    correct = all(checks.values()) and raw["failed"] == 0
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "checks": checks,
        "lat_samples": len(raw["samples"].get("lat_ms", [])),
        "generator_late_ms_p99": generator_late_p99(raw),
    }
    with open(next_free(os.path.join(
            results_dir, "%s-s%d-t%d" % (workload, seed, trace))), "w") as f:
        json.dump(result, f, indent=1)
    return result


def print_result(result):
    w = result["workload"]
    for name, metric in result["metrics"].items():
        print("%s %s %.6g %s" % (w, name, metric["value"], metric["unit"]))
    print("%s lat_samples %d count" % (w, result["lat_samples"]))
    for name, ok in sorted(result["checks"].items()):
        if not ok:
            print("%s check_failed %s" % (w, name), file=sys.stderr)
    if result["generator_late_ms_p99"] > 1.0:
        print("%s warning: load generator p99 lateness %.3g ms > 1 ms; "
              "latencies include generator stalls"
              % (w, result["generator_late_ms_p99"]), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, traced and untraced, all checks")
    parser.add_argument("--binary", help="use this moqo_bench, skip build")
    parser.add_argument("--work-dir",
                        help="results/raw/traces/sockets (default: build "
                             "dir)")
    parser.add_argument("--results-dir",
                        help="where result JSON goes (default: "
                             "<work dir>/results)")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference/*.ref")
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    work_dir = os.path.abspath(args.work_dir or build_dir)
    results_dir = os.path.abspath(args.results_dir
                                  or os.path.join(work_dir, "results"))
    try:
        bench = load_benchmark()
        binary = args.binary or build(build_dir)
        if args.write_reference:
            for workload in ("anytime_small", "anytime_large"):
                run_binary([binary, "--write-reference",
                            "--workload=" + workload,
                            "--reference-dir=" + os.path.join(
                                ROOT, "perfbench", "reference")])
            return 0
        seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                                   else bench["run_seconds"])
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        traces = (0, 1) if args.smoke else (args.trace,)
        results = []
        for workload in workloads:
            for trace in traces:
                result = run_workload(binary, bench, workload, args.seed,
                                      seconds, trace, args.smoke, work_dir,
                                      results_dir)
                print_result(result)
                results.append(result)
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2
    if args.workload and not args.smoke:
        result = results[0]
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
