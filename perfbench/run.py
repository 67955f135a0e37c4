"""Benchmark for ntdice: one workload, one seed, measured for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload {census,scan,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

A run sets up (seven fresh set-up processes time ``setup_s``; this process
then builds the same seeded inputs), then runs passes over the workload's
fixed job list until S seconds have gone, checking every output. Reported
times are scaled to a reference machine speed (see ``speed.py``). With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics replace the end-to-end ones. The last line of stdout is the JSON
result; the line before it records the run's settings and environment.
Exit status: 0 when every check passed, 1 when one failed, 2 when the run
could not start (no ntdice sources under ``src``, bad arguments).

``--self-check`` runs every workload at toy size, traced and untraced, and
prints every metric by name with its unit. It confirms that each metric
declared in BENCHMARK.json is emitted with its unit and that a wrong
expected value fails the run.
"""

import argparse
import copy
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "ntdice-bench")
PROBES = 7

# Counters per pass, and ratios over all traced passes: (metric, span, key).
COUNTS = [
    ("search.enumerate_words.words", "search.enumerate_words", "words"),
    ("search.enumerate_words.bnt_words", "search.enumerate_words", "bnt_words"),
    ("search.balanced_nontransitive_words.yielded", "search.balanced_nontransitive_words", "yielded"),
    ("search.is_irreducible.calls", "search.is_irreducible", "calls"),
    ("search.search_realization.calls", "search.search_realization", "calls"),
    ("core.validate_dice.calls", "core.validate_dice", "calls"),
    ("core.verify.calls", "core.verify", "calls"),
]
RATIOS = [
    ("search.is_irreducible.useful_ratio", "search.is_irreducible", "useful"),
    ("search.search_realization.found_ratio", "search.search_realization", "found"),
]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def setup_probes(workload, size, seed, workdir, speedometer):
    """Launch-to-ready (start, end) times and ``import ntdice.cli`` seconds
    of each set-up process, calibrating around each."""
    spans, imports = [], []
    command = [sys.executable, os.path.join(HERE, "probe.py"), workload, size, str(seed), workdir]
    for _ in range(PROBES):
        speedometer.calibrate()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                spans.append((start, time.perf_counter()))
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if code != 0 or not line:
            fail(f"set-up process exited with {code}")
        imports.append(float(line))
    speedometer.calibrate()
    return spans, imports


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def layer_metrics(traced, plain, import_s):
    """Per-layer metrics from the traced passes (medians over passes).

    Self times, ``trace.wall_s`` and ``trace.unaccounted_s`` are raw
    seconds, with calibration time left out; ``trace.overhead_s`` compares
    scaled walls, so that a change of machine speed does not read as
    tracing cost.
    """
    from tracing import LAYERS

    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    per_pass = []
    for p in traced:
        self_s = {}
        for row in p["rows"]:
            self_s[row[1]] = self_s.get(row[1], 0.0) + row[5]
        per_pass.append(self_s)
    metrics = {}
    for name in names:
        metrics[name + ".s"] = (statistics.median(s.get(name, 0.0) for s in per_pass), "s")
    for metric, name, key in COUNTS:
        value = statistics.median(p["counters"].get(name, {}).get(key, 0) for p in traced)
        metrics[metric] = (value, "count")
    for metric, name, key in RATIOS:
        hits = sum(p["counters"].get(name, {}).get(key, 0) for p in traced)
        calls = sum(p["counters"].get(name, {}).get("calls", 0) for p in traced)
        metrics[metric] = (hits / calls if calls else 0.0, "ratio")
    process = [s for p in traced for s in p["log"].process_s]
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.process_s"] = (statistics.median(process) if process else 0.0, "s")
    metrics["trace.wall_s"] = (statistics.median(p["raw"] for p in traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in traced) - statistics.median(p["wall"] for p in plain),
        "s",
    )
    metrics["trace.unaccounted_s"] = (
        statistics.median(p["raw"] - sum(s.values()) for p, s in zip(traced, per_pass)),
        "s",
    )
    return metrics


def measure(workload, seed, seconds, trace, size="full", expected=None):
    """Set up, run passes for ``seconds`` and return the result and record."""
    import workloads
    from speed import Speedometer
    from tracing import Tracer

    if expected is None:
        expected = workloads.EXPECTED[workload][size]
    prepare, run_pass = workloads.WORKLOADS[workload]
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    speedometer = Speedometer()
    try:
        setup_spans, imports = setup_probes(workload, size, seed, workdir, speedometer)
        plan = prepare(expected, seed, workdir)
        tracer = Tracer() if trace else None
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            log = workloads.PassLog(speedometer)
            speedometer.checkpoint()
            if traced:
                tracer.install(sys.modules)
            cpu = cpu_seconds()
            start = time.perf_counter()
            try:
                run_pass(plan, log, tracer if traced else None)
            finally:
                end = time.perf_counter()
                cpu = cpu_seconds() - cpu
                if traced:
                    tracer.uninstall()
                speedometer.calibrate()
            record = {"traced": traced, "start": start, "end": end, "cpu": cpu, "log": log}
            if traced:
                record["rows"], record["counters"] = tracer.take()
            passes.append(record)
            if time.perf_counter() >= deadline and len(passes) >= (2 if trace else 1):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in passes:
        # Calibrations inside a pass are left out of its wall and CPU time.
        p["wall"], p["raw"] = speedometer.scaled(p["start"], p["end"])
        p["cpu"] = (p["cpu"] - (p["end"] - p["start"] - p["raw"])) * p["wall"] / p["raw"]
    setup = [(end - start) * speedometer.factor_at(start) for start, end in setup_spans]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["log"].checks for p in passes)
    failures = [f for p in passes for f in p["log"].failures]
    # Each operation's median latency over the passes; the percentiles run
    # over operations, so that the pooled mix of a few slow commands does
    # not put p90 on the edge between two of them.
    latencies = {}
    for p in plain:
        for key, (start, end) in p["log"].ops.items():
            scaled = 1000 * (end - start) * speedometer.factor_at(start)
            latencies.setdefault(key, []).append(scaled)
    ops_ms = [statistics.median(samples) for samples in latencies.values()]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = layer_metrics(traced, plain, statistics.median(imports))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
            "op_ms.p50": (percentile(ops_ms, 50), "ms"),
            "op_ms.p90": (percentile(ops_ms, 90), "ms"),
            "cpu_s": (statistics.median(p["cpu"] for p in plain), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    sha, dirty = git_state()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "operations": len(ops_ms),
        "op_samples": sum(len(samples) for samples in latencies.values()),
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "raw_setup_s": statistics.median(end - start for start, end in setup_spans),
        "raw_wall_s": statistics.median(p["raw"] for p in plain),
        "kernel_ms": 1000 * statistics.median(speedometer.kernel_s),
    }
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    spans = [{"pass": i, "wall": p["raw"], "spans": p["rows"]} for i, p in enumerate(passes) if p["traced"]]
    return result, record, spans


def report(result, record):
    """Every metric by name with its unit, then the check counts, to stderr."""
    workload = record["workload"]
    for name, metric in result["metrics"].items():
        print(f"{workload:>6} {name:<46} {metric['value']:14.6f} {metric['unit']}", file=sys.stderr)
    print(
        f"{workload:>6} checks {result['attempted']}, failed {result['failed']}, "
        f"fail_ratio {record['fail_ratio']:.4f}, "
        f"operations {record['operations']} ({record['op_samples']} samples)",
        file=sys.stderr,
    )
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)


def run(args):
    result, record, spans = measure(args.workload, args.seed, args.seconds, args.trace)
    if spans:
        path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"record": record, "passes": spans}, handle)
        record["spans_file"] = os.path.relpath(path, ROOT)
    report(result, record)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def corrupt(workload, expected):
    """A copy of ``expected`` with one value wrong."""
    wrong = copy.deepcopy(expected)
    if workload == "census":
        key = min(wrong)
        wrong[key] = (wrong[key][0] + 1,) + wrong[key][1:]
    elif workload == "scan":
        wrong["m3"] = (wrong["m3"][0], wrong["m3"][1] + 1) + wrong["m3"][2:]
    else:
        argv, code, _ = wrong["fixed"][0]
        wrong["fixed"][0] = (argv, code, "0" * 64)
    return wrong


def self_check():
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record, _ = measure(workload, 1, 0, trace, size="toy")
            report(result, record)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != declared {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: failed {record['failures']}")
        wrong = corrupt(workload, workloads.EXPECTED[workload]["toy"])
        result, _, _ = measure(workload, 1, 0, 0, size="toy", expected=wrong)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: a wrong expected value did not fail the run")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description="ntdice benchmark")
    parser.add_argument("--workload", choices=("census", "scan", "cli"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None or args.seconds is None):
        fail("--workload, --seed and --seconds are required")
    if not os.path.isfile(os.path.join(SRC, "ntdice", "__init__.py")):
        fail(f"no ntdice sources under {SRC}")
    sys.path.insert(1, SRC)
    os.environ["PYTHONPATH"] = SRC  # for the set-up and CLI child processes
    os.makedirs(WORK, exist_ok=True)
    import ntdice

    if os.path.dirname(os.path.abspath(ntdice.__file__)) != os.path.join(SRC, "ntdice"):
        fail(f"imported ntdice from {ntdice.__file__}, not from {SRC}")
    return self_check() if args.self_check else run(args)


if __name__ == "__main__":
    sys.exit(main())
