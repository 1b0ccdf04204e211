"""The three benchmark workloads: seeded inputs, timed queries, answer checks.

Every workload runs whole *passes* over a fixed set of queries, so the
share of decided answers is the same on every run by construction; the
seed only permutes the order (and, for ``service_stream`` and
``batch_parallel``, draws the repeats).  Each answer is checked against
``expected.json``, whose entries come from the explicit-state explorers or
from how the program is built, never from the verifier under test.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro  # noqa: F401  (setup time includes the package import)
from repro import VerificationSession, verify_many
from repro.baselines.explicit import canonical_matching
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.workloads import (
    client_server,
    nonblocking_fanin,
    pipeline,
    racy_fanin,
    token_ring,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: The answer table (``perfbench/expected.py`` regenerates it).
EXPECTED: Dict[str, dict] = {}
if os.path.exists(EXPECTED_PATH):
    with open(EXPECTED_PATH, encoding="utf-8") as _handle:
        EXPECTED = json.load(_handle)

SERVICE_REQUESTS = 1200
BATCH_ITEMS = 192
BATCH_JOBS = 2

#: Queries between two samples of the reference kernel.
REFERENCE_EVERY = 20
#: Reference samples whose median gives the machine's speed at one
#: window: its own sample and five on each side, in the order taken.
REFERENCE_WINDOW = 11
#: Normalised times read as measured when the reference kernel takes this
#: long: its best time on the reference VM (2 vCPU Xeon, CPython 3.11).
REFERENCE_NOMINAL_S = 0.00115

_REFERENCE_RNG = random.Random(7)
#: A fixed random digraph for the reference kernel's shortest paths.
_REFERENCE_GRAPH = [
    [(_REFERENCE_RNG.randrange(600), _REFERENCE_RNG.randrange(1, 50)) for _ in range(4)]
    for _ in range(600)
]


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_cell) -> None:
        self.value = value
        self.next = next_cell


def reference_seconds() -> float:
    """Time one fixed pure-Python kernel that shares no code with repro.

    Dijkstra over a heap and a linked list of slotted objects: the same
    kind of interpreter work as the solver's IDL lane.  Sampled between
    queries, it tells how fast the machine ran during the run.
    """
    begin = time.perf_counter()
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _REFERENCE_GRAPH[u]:
            if d + w < dist.get(v, 1 << 60):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    head = None
    for i in range(2000):
        head = _Cell(i, head)
    while head is not None:
        head = head.next
    return time.perf_counter() - begin


def speed_scales(samples: List[float]) -> List[float]:
    """Per reference sample, the factor to the reference VM's fast state.

    A time measured in a sample's window, multiplied by its factor, reads
    as on the reference VM.  The median of neighbouring samples follows
    the VM's drift without following one noisy sample.
    """
    half = REFERENCE_WINDOW // 2
    return [
        REFERENCE_NOMINAL_S / statistics.median(samples[max(0, index - half) : index + half + 1])
        for index in range(len(samples))
    ]


SOLVER_COUNTERS = (
    "sat_decisions",
    "sat_conflicts",
    "theory_conflicts",
    "theory_propagations_idl",
    "iterations",
)
SIZE_COUNTERS = ("sat_clauses", "sat_variables", "arith_atoms")


@dataclass
class PassResult:
    """What one pass over a workload's queries produced."""

    latencies: List[float] = field(default_factory=list)
    #: Per query, in the same order as ``latencies``: answered as expected.
    decided_flags: List[bool] = field(default_factory=list)
    wall: float = 0.0
    decided: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    #: In-process service only: seconds inside ``handle_json`` per query.
    handle_latencies: List[float] = field(default_factory=list)
    #: Reference-kernel times sampled between this pass's queries.  The
    #: queries after one sample, up to the next, form that sample's window.
    reference: List[float] = field(default_factory=list)
    #: Per window: its wall seconds, the reference kernel's excluded.
    window_walls: List[float] = field(default_factory=list)
    #: Per query, in the same order as ``latencies``: its window.
    windows: List[int] = field(default_factory=list)
    window_start: Optional[float] = None

    def sample_reference(self, query: int) -> None:
        """Before every REFERENCE_EVERY-th query: close a window, open one."""
        if query % REFERENCE_EVERY == 0:
            self._close_window()
            self.reference.append(reference_seconds())
            self.window_start = time.perf_counter()

    def add_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.windows.append(len(self.reference) - 1)

    def stop(self) -> None:
        """End the timed phase, which began with the first sample."""
        self._close_window()
        self.wall = sum(self.window_walls)

    def _close_window(self) -> None:
        if self.window_start is not None:
            self.window_walls.append(time.perf_counter() - self.window_start)
            self.window_start = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def judge(result: PassResult, label: str, verdict: str, expected: str) -> None:
    """Score one answer: decided and right, undecided, or wrong."""
    result.decided_flags.append(verdict == expected)
    if verdict == expected:
        result.decided += 1
    elif verdict in ("safe", "violation"):
        result.wrong.append(f"{label}: got {verdict}, expected {expected}")
    elif verdict != "unknown":
        result.failed += 1


def add_counts(total: Dict[str, float], stats: Dict[str, object], keys, prefix) -> None:
    for key in keys:
        total[prefix + key] = total.get(prefix + key, 0) + int(stats.get(key, 0) or 0)


def traced(recorder, query, *layers):
    """The root span of ``query`` with ``layers`` inside it; nothing untraced."""
    stack = contextlib.ExitStack()
    if recorder is not None:
        stack.enter_context(recorder.root(query))
        for layer in layers:
            stack.enter_context(recorder.span(layer))
    return stack


def fresh_dir(name: str) -> str:
    path = os.path.join(os.getcwd(), ".perfbench", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# enum_fanin: the paper's Figure 4 question
# ---------------------------------------------------------------------------


class EnumFanin:
    """Full matching enumeration of racy_fanin(k), k = 3..6 (870 models)."""

    name = "enum_fanin"
    pass_seconds = 5.0
    #: Fresh-interpreter cold starts per run; ``setup_s`` is their median.
    cold_starts = 9
    sizes = (3, 4, 5, 6)

    def __init__(self, seed: int) -> None:
        self.order = list(self.sizes)
        random.Random(seed).shuffle(self.order)

    def prepare(self, recorder=None) -> List[Tuple[int, VerificationSession]]:
        sessions = []
        for k in self.order:
            with traced(recorder, f"prepare:{k}"):
                session = VerificationSession.from_program(racy_fanin(k), seed=0)
                session.backend  # load the base assertions before the first query
            sessions.append((k, session))
        return sessions

    def run_pass(self, state, recorder=None) -> PassResult:
        result = PassResult()
        calls = 0
        unseen = 0
        for k, session in state:
            expected = EXPECTED["enum_fanin"][str(k)]
            found = set()
            models = session.pairings()
            first = checks = session.statistics().get("checks", 0)
            while True:
                # The last call finds no model: it is timed in the wall but
                # is not a query.
                query, calls = calls, calls + 1
                result.sample_reference(query)
                begin = time.perf_counter()
                with traced(recorder, query, "enum.model"):
                    matching = next(models, None)
                elapsed = time.perf_counter() - begin
                stats = session.statistics()
                # statistics() describes the latest check only: the sums
                # below miss every other check one call ran.
                if stats.get("checks", 0) > checks:
                    add_counts(result.counts, stats, SOLVER_COUNTERS, "solve.")
                    if checks == first:
                        add_counts(result.counts, stats, SIZE_COUNTERS, "encode.")
                    unseen += stats["checks"] - checks - 1
                    checks = stats["checks"]
                if matching is None:
                    break
                result.add_latency(elapsed)
                result.decided_flags.append(True)
                found.add(canonical_matching(session.trace, matching))
            result.counts["solve.checks"] = result.counts.get("solve.checks", 0) + checks - first
            if len(found) != expected["models"]:
                result.wrong.append(
                    f"racy_fanin({k}): {len(found)} matchings, expected {expected['models']}"
                )
            elif "matchings" in expected and found != {
                frozenset((tuple(r), tuple(s)) for r, s in pairs)
                for pairs in expected["matchings"]
            }:
                result.wrong.append(f"racy_fanin({k}): matching set differs")
            else:
                result.decided += len(found)
        result.stop()
        result.counts["solve.checks_per_model"] = result.counts.pop("solve.checks") / len(
            result.latencies
        )
        result.counts["solve.unseen_checks"] = unseen
        return result

    def release(self, state) -> None:
        pass

    def run_traced(self, recorder=None) -> PassResult:
        return self.run_pass(self.prepare(recorder), recorder)


# ---------------------------------------------------------------------------
# service_stream: one closed-loop connection to a daemon
# ---------------------------------------------------------------------------

#: (registered workload, params) pairs; every one is asked in three modes.
SERVICE_PROGRAMS = [
    ("figure1", {"property": "a-is-y"}),
    ("figure1", {"property": "a-is-x"}),
    ("racy_fanin", {"senders": 2}),
    ("racy_fanin", {"senders": 3}),
    ("pipeline", {"senders": 2}),
    ("racy_fanin", {"senders": 2, "messages": 2}),
    ("nonblocking_fanin", {"senders": 2}),
    ("nonblocking_fanin", {"senders": 3}),
    ("pipeline", {"senders": 3}),
    ("pipeline", {"senders": 4}),
    ("pipeline", {"senders": 5}),
    ("token_ring", {"senders": 3}),
    ("token_ring", {"senders": 4}),
    ("token_ring", {"senders": 5}),
    ("client_server", {"senders": 2}),
    ("client_server", {"senders": 3}),
    ("circular_wait", {"senders": 2}),
    ("circular_wait", {"senders": 3}),
    ("starved_fanin", {"senders": 2}),
    ("starved_fanin", {"senders": 3}),
]
SERVICE_MODES = ("safety", "deadlock", "orphan")


def service_key(workload: str, params: Dict[str, object], mode: str) -> str:
    args = ",".join(f"{name}={params[name]}" for name in sorted(params))
    return f"{workload}({args}):{mode}"


def start_daemon(cache_dir: str) -> Tuple[subprocess.Popen, ServiceClient]:
    """Start ``mcapi-verify serve`` on an ephemeral loopback port."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.verification.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", "1", "--cache-dir", cache_dir,
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline()
    if "listening on" not in line:
        process.kill()
        process.wait()
        raise RuntimeError(f"daemon did not start: {line!r}")
    address = line.rsplit(" ", 1)[1].strip()
    return process, ServiceClient(address, timeout=60.0, retries=0)


def stop_daemon(process: subprocess.Popen, client: ServiceClient) -> None:
    try:
        client.shutdown()
    finally:
        client.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


class ServiceStream:
    """A skewed request stream over 60 keys through one daemon connection."""

    name = "service_stream"
    pass_seconds = 5.0
    #: Fewer than the others: each cold start also starts a daemon.
    cold_starts = 7

    def __init__(self, seed: int) -> None:
        keys = [
            (workload, params, mode)
            for workload, params in SERVICE_PROGRAMS
            for mode in SERVICE_MODES
        ]
        # Fixed Zipf-like quotas: which keys are hot, and how often each is
        # asked, are part of the workload, so every seed's stream costs the
        # same.  Every key is asked at least once.  The seed orders the
        # requests, and so fixes which of them miss: the first of each key.
        random.Random(0).shuffle(keys)
        weights = [1.0 / (rank + 1) for rank in range(len(keys))]
        shares = [
            (SERVICE_REQUESTS - len(keys)) * weight / sum(weights) for weight in weights
        ]
        quotas = [1 + int(share) for share in shares]
        by_remainder = sorted(
            range(len(keys)), key=lambda index: int(shares[index]) - shares[index]
        )
        for index in by_remainder[: SERVICE_REQUESTS - sum(quotas)]:
            quotas[index] += 1
        stream = [key for key, quota in zip(keys, quotas) for _ in range(quota)]
        random.Random(seed).shuffle(stream)
        self.stream = stream

    def prepare(self):
        return start_daemon(fresh_dir("service-cache"))

    def release(self, state) -> None:
        stop_daemon(*state)

    def run_pass(self, state, recorder=None) -> PassResult:
        """Send the stream over the daemon connection ``state``."""
        process, client = state
        result = PassResult()
        try:
            for query, (workload, params, mode) in enumerate(self.stream):
                result.sample_reference(query)
                begin = time.perf_counter()
                try:
                    verdict = client.verify(workload, params, mode=mode).verdict.value
                except repro.ServiceError:
                    verdict = "error"
                result.add_latency(time.perf_counter() - begin)
                judge_service(result, workload, params, mode, verdict)
            result.stop()
            stats = client.stats()
        finally:
            stop_daemon(process, client)
        result.counts.update(sharing_counts(stats))
        return result

    def run_traced(self, recorder=None) -> PassResult:
        """Feed the same frames to an in-process ``VerificationService``.

        Each request's layers can be timed only in this process, so the
        traced run takes this path instead of the daemon's.
        """
        from repro.service.server import VerificationService

        service = VerificationService(jobs=0, cache_dir=fresh_dir("inproc-cache"))
        result = PassResult()
        try:
            for query, (workload, params, mode) in enumerate(self.stream):
                result.sample_reference(query)
                spec = {"workload": workload, "params": params, "seed": 0, "mode": mode}
                begin = time.perf_counter()
                with traced(recorder, query):
                    verdict, handled = self._round_trip(service, query, spec)
                result.add_latency(time.perf_counter() - begin)
                result.handle_latencies.append(handled)
                judge_service(result, workload, params, mode, verdict)
            result.stop()
        finally:
            service.close()
        return result

    @staticmethod
    def _round_trip(service, query: int, spec: Dict[str, object]) -> Tuple[str, float]:
        """One request as the client frames it; returns (verdict, handle s)."""
        frame = protocol.encode_frame(protocol.make_request("verify", spec, query))
        message = protocol.decode_frame(frame)
        begin = time.perf_counter()
        response = service.handle_json(message)
        handled = time.perf_counter() - begin
        reply = protocol.decode_frame(protocol.encode_frame(response))
        if "result" not in reply:
            return "error", handled
        result = protocol.payload_to_result(reply["result"]["result"])
        return result.verdict.value, handled


def judge_service(result: PassResult, workload, params, mode, verdict: str) -> None:
    key = service_key(workload, params, mode)
    judge(result, key, verdict, EXPECTED["service_stream"][key]["verdict"])


def sharing_counts(stats: Dict[str, object]) -> Dict[str, float]:
    """Pool and cache sharing from a service ``stats`` answer."""
    pool, cache = stats["pool"], stats["cache"]
    return {
        "pool.hit_share": pool["hits"] / (pool["hits"] + pool["misses"]),
        "pool.evictions": pool["evictions"],
        "cache.hit_share": cache["hits"] / (cache["hits"] + cache["misses"]),
    }


# ---------------------------------------------------------------------------
# batch_parallel: verify_many over a process pool with dedup and a cache
# ---------------------------------------------------------------------------


def batch_shapes() -> List[Tuple[str, str, tuple, object]]:
    """(label, family, parameters, program) of every shape the batch draws."""
    families = {
        # k * m <= 8 keeps every item under half a second: past it the
        # asserted fan-ins take 0.5-10 s each and one item sets the wall.
        "racy_fanin": (racy_fanin, [
            (k, m, asserted)
            for k in range(1, 7) for m in range(1, 4) if k * m <= 8
            for asserted in (False, True)
        ]),
        "client_server": (client_server, [(n,) for n in range(1, 7)]),
        "pipeline": (pipeline, [(n,) for n in range(2, 8)]),
        "token_ring": (token_ring, [(n,) for n in range(2, 7)]),
        "nonblocking_fanin": (nonblocking_fanin, [(n,) for n in range(1, 6)]),
    }
    return [
        (f"{family}{params}", family, params, build(*params))
        for family, (build, grid) in families.items()
        for params in grid
    ]


class BatchParallel:
    """verify_many(jobs=2, cache_dir=fresh) over 192 drawn items."""

    name = "batch_parallel"
    pass_seconds = 1.0
    #: More than the others: its cold start is mostly the import, whose
    #: time is bimodal, and each costs only a few tenths of a second.
    cold_starts = 11

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        shapes = batch_shapes()
        # Every shape once plus seeded repeats drawn with replacement: the
        # distinct work per batch is the same for every seed.
        items = shapes + rng.choices(shapes, k=BATCH_ITEMS - len(shapes))
        rng.shuffle(items)
        self.items = [(label, program) for label, _, _, program in items]

    def prepare(self):
        return None

    def release(self, state) -> None:
        pass

    def run_pass(self, state, recorder=None) -> PassResult:
        result = PassResult()
        programs = [program for _, program in self.items]
        cache_dir = fresh_dir("batch-cache")
        # A pass is one long query: sample the machine's speed as often as
        # before REFERENCE_WINDOW // 2 + 1 queries of the other workloads.
        for _ in range(REFERENCE_WINDOW // 2 + 1):
            result.sample_reference(0)
        with traced(recorder, 0):
            answers = verify_many(programs, jobs=BATCH_JOBS, cache_dir=cache_dir)
        result.stop()
        busy = 0.0
        shared = 0
        for (label, _), answer in zip(self.items, answers):
            # verify_many returns every answer at once: an item's latency is
            # the call's.
            result.add_latency(result.wall)
            judge(result, label, answer.verdict.value, EXPECTED["batch_parallel"][label]["verdict"])
            if answer.from_cache:
                shared += 1
            else:
                busy += answer.encode_seconds + answer.solve_seconds
        if len(answers) != len(self.items):
            result.wrong.append(f"{len(answers)} answers for {len(self.items)} items")
        result.counts["batch.dedup_share"] = shared / len(self.items)
        result.counts["parallel.busy_s"] = busy
        return result

    def run_traced(self, recorder=None) -> PassResult:
        return self.run_pass(self.prepare(), recorder)


WORKLOADS = {
    cls.name: cls for cls in (EnumFanin, ServiceStream, BatchParallel)
}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]
