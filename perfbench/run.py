"""Run one benchmark workload and print its metrics as one JSON line.

Run from the root of a repro checkout::

    python3 perfbench/run.py --workload enum_fanin --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload again with the span recorder installed and
prints the per-layer breakdown, the solver and sharing counts (collected a
second time in a separate process and compared) and the tracing overhead.
Workloads and layers are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

RUN = os.path.abspath(__file__)
#: Spans are written here, under the checkout, when a traced run ends.
OUT_DIR = ".perfbench"

LAYERS = {
    "record": "record.ms",
    "fingerprint": "fingerprint.ms",
    "registry": "registry.ms",
    "encode": "encode.ms",
    "load": "load.ms",
    "solve": "solve.ms",
    "enum.model": "enum.model_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.store": "cache.store_ms",
    "service.handle": "service.handle_ms",
    "service.frame": "service.frame_ms",
    "other": "other.ms",
}
COUNTS = (
    "solve.sat_decisions",
    "solve.sat_conflicts",
    "solve.theory_conflicts",
    "solve.theory_propagations_idl",
    "solve.iterations",
    "solve.checks_per_model",
    "encode.sat_clauses",
    "encode.sat_variables",
    "encode.arith_atoms",
    "pool.hit_share",
    "pool.evictions",
    "cache.hit_share",
    "batch.dedup_share",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes: one cold start, or one count collection, then exit.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    """Largest resident set of this process and every process it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def warm_up() -> None:
    """Compile bytecode and the native SAT kernel before anything is timed."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.path.insert(0, 'src'); "
            "import repro.service.server, repro.verification.parallel; "
            "from repro.smt import satkernel; satkernel.load()",
        ],
        check=True,
    )


def cold_start(args) -> float:
    """Seconds from launching a fresh interpreter until it is ready to query."""
    begin = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, RUN, "--probe", "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = probe.stdout.readline()
    elapsed = time.perf_counter() - begin
    probe.stdout.close()
    if probe.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start of {args.workload} failed")
    return elapsed


def collect_counts(workloads, args) -> dict:
    """The deterministic counts of one untraced pass."""
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = workload.run_pass(workload.prepare())
    return {name: value for name, value in result.counts.items() if name in COUNTS}


def measure(workloads, args) -> dict:
    """The end-to-end metrics over repeated, identical timed passes.

    The VM this was built on changes speed by up to 2x over minutes and
    by 40% over seconds, for every process at once.  So every time is
    normalised to the machine's speed when it was measured, as given by a
    reference kernel sampled every few queries (``speed_scales``).  Each
    query's latency is then the median of its normalised repeats across
    the run's passes, and throughput the median over the passes.  Cold
    starts are spread between the passes, so that ``setup_s``, a median,
    samples the whole run.
    """
    workload = workloads.WORKLOADS[args.workload](args.seed)
    repeats = max(1, round(args.seconds / workload.pass_seconds))
    starts = []  # per pass: the cold starts made just before it
    passes = []
    for index in range(repeats):
        starts.append([])
        while sum(map(len, starts)) < round((index + 1) * workload.cold_starts / repeats):
            starts[index].append(cold_start(args))
        passes.append(workload.run_pass(workload.prepare()))
    samples = [value for result in passes for value in result.reference]
    scales = workloads.speed_scales(samples)
    normalised = []
    rates = []
    setups = []
    offset = 0
    for before, result in zip(starts, passes):
        # A cold start is normalised by the speed at the start of the next pass.
        setups.extend((elapsed, elapsed * scales[offset]) for elapsed in before)
        normalised.append(
            [latency * scales[offset + window] for latency, window in zip(result.latencies, result.windows)]
        )
        wall = sum(seconds * scales[offset + window] for window, seconds in enumerate(result.window_walls))
        rates.append((result.attempted / result.wall, result.attempted / wall))
        offset += len(result.reference)
    flags = [all(column) for column in zip(*(result.decided_flags for result in passes))]
    raw_latency = [statistics.median(column) for column in zip(*(r.latencies for r in passes))]
    latency = [statistics.median(column) for column in zip(*normalised)]
    raw_decided = [value for value, ok in zip(raw_latency, flags) if ok]
    decided = [value for value, ok in zip(latency, flags) if ok]
    raw = {
        "setup_s": statistics.median(raw_setup for raw_setup, _ in setups),
        "queries_per_s": statistics.median(raw_rate for raw_rate, _ in rates),
        "query_s.p50": workloads.percentile(raw_decided, 0.5),
        "query_s.p90": workloads.percentile(raw_decided, 0.9),
        "reference_s": statistics.median(samples),
    }
    metrics = {
        "setup_s": (statistics.median(setup for _, setup in setups), "s"),
        "queries_per_s": (statistics.median(rate for _, rate in rates), "1/s"),
        "query_ms.p50": (1000 * workloads.percentile(decided, 0.5), "ms"),
        "query_ms.p90": (1000 * workloads.percentile(decided, 0.9), "ms"),
        "decided_share": (
            sum(r.decided for r in passes) / sum(r.attempted for r in passes),
            "ratio",
        ),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"raw-{args.workload}-{args.seed}.json"), "w") as out:
        json.dump(raw, out)
    return finish(passes, metrics)


def finish(passes, metrics, problems=()) -> dict:
    wrong = [message for result in passes for message in result.wrong]
    for message in list(wrong) + list(problems):
        print(f"wrong: {message}", file=sys.stderr)
    return {
        "correct": not wrong and not problems,
        "attempted": sum(result.attempted for result in passes),
        "failed": sum(result.failed + len(result.wrong) for result in passes),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def speed_p50(result) -> float:
    """A pass's p50 latency, normalised as in ``measure``."""
    import workloads

    scales = workloads.speed_scales(result.reference)
    return workloads.percentile(
        [latency * scales[window] for latency, window in zip(result.latencies, result.windows)],
        0.5,
    )


def trace(workloads, args) -> dict:
    """Per-layer self times, counts checked across processes, overhead.

    A layer's figure is its self time summed over the traced run, set-up
    included, divided by the number of queries: the mean cost per query.
    A layer that only some queries cross, such as the solver on the
    service's cold requests, is then still seen, and the layers add up to
    the traced time per query.
    """
    from spans import ROOT, Recorder, install

    workload = workloads.WORKLOADS[args.workload](args.seed)
    plain = workload.run_pass(workload.prepare())
    baseline = workload.run_traced()
    recorder = Recorder()
    install(recorder)
    try:
        traced = workload.run_traced(recorder)
    finally:
        recorder.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))

    problems = []
    totals = dict.fromkeys(LAYERS, 0.0)
    for layers in recorder.per_query().values():
        whole = layers.pop(ROOT)
        if abs(sum(layers.values()) - whole) > 1e-6:
            problems.append(f"layers do not add up: {layers} vs {whole}")
        for layer, seconds in layers.items():
            totals[layer] += seconds
    metrics = {
        metric: (1000 * totals[layer] / traced.attempted, "ms")
        for layer, metric in LAYERS.items()
    }
    # Only the service has a transport: the daemon's round trip minus the
    # in-process handling of the same requests.
    transport = 0.0
    if baseline.handle_latencies:
        transport = workloads.percentile(plain.latencies, 0.5) - workloads.percentile(
            baseline.handle_latencies, 0.5
        )
    metrics["service.transport_ms"] = (1000 * transport, "ms")
    busy = plain.counts.pop("parallel.busy_s", 0.0)
    metrics["parallel.efficiency"] = (busy / (workloads.BATCH_JOBS * plain.wall), "ratio")
    metrics["trace.overhead"] = (speed_p50(traced) / speed_p50(baseline), "ratio")

    counts = {key: value for key, value in plain.counts.items() if key in COUNTS}
    again = json.loads(
        subprocess.run(
            [sys.executable, RUN, "--counts", "--workload", args.workload, "--seed", str(args.seed)],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.splitlines()[-1]
    )
    if again != counts:
        problems.append(f"counts differ between processes: {counts} vs {again}")
    if plain.counts.get("solve.unseen_checks"):
        problems.append("a call ran several checks; the solver counts miss some of them")
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "ratio" if "share" in key or "per" in key else "count")
    return finish([plain, baseline, traced], metrics, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (no src/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        state = workload.prepare()
        print("ready", flush=True)
        workload.release(state)
        return 0
    if args.counts:
        print(json.dumps(collect_counts(workloads, args)))
        return 0
    warm_up()
    report = trace(workloads, args) if args.trace else measure(workloads, args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
