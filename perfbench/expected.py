"""Regenerate ``expected.json``, the answer to every benchmark input.

Run from the repository root (takes a few minutes)::

    python3 perfbench/expected.py

Answers come from the exhaustive explicit-state explorer
(:class:`repro.baselines.explicit.ExplicitStateExplorer`) where it can
finish, and otherwise from how the program is built; every construction
rule is first checked against the explorer on the sizes it can exhaust.
Nothing here asks the symbolic verifier, which is what the benchmark tests.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.baselines.explicit import ExplicitStateExplorer  # noqa: E402
from repro.service.pool import build_program  # noqa: E402
from repro.workloads import racy_fanin  # noqa: E402

import workloads  # noqa: E402

#: The explorer checks a rule only on programs with at most this many
#: sends, and gives up (keeping the rule) past this many complete runs.
EXPLORE_SENDS = 4
EXPLORE_RUNS = 10_000


def explore(program, max_runs=None):
    """The explorer's result, or None if it did not finish in ``max_runs``."""
    result = ExplicitStateExplorer(program, max_runs=max_runs).explore()
    return None if result.truncated else result


def verdicts(result) -> dict:
    """The explorer's answer in each verification mode."""
    def answer(found: bool) -> str:
        return "violation" if found else "safe"

    return {
        "safety": answer(bool(result.assertion_failures)),
        "deadlock": answer(result.deadlocks > 0),
        "orphan": answer(bool(result.orphan_messages)),
    }


# Construction rules, by program family.  A receiver's first message can
# come from any sender.  The paper's encoding (the default) has no per-pair
# FIFO, so a sender's own messages may also overtake each other; the
# explorer always keeps per-pair FIFO, so it can only check the rule where
# that makes no difference.  Every program below completes every receive
# and consumes every send, except the two that block by construction.
def fanin(messages: int, asserted: bool) -> str:
    return "violation" if asserted and messages >= 2 else "safe"


def modes(safety: str, deadlock: str = "safe") -> dict:
    return {"safety": safety, "deadlock": deadlock, "orphan": "safe"}


RULES = {
    "racy_fanin": lambda k, m=1, asserted=True: modes(fanin(k * m, asserted)),
    "nonblocking_fanin": lambda n: modes(fanin(n, True)),
    # The echo, stage-sum and token assertions hold in every execution.
    "client_server": lambda n: modes("safe"),
    "pipeline": lambda n: modes("safe"),
    "token_ring": lambda n: modes("safe"),
    # Every schedule blocks: there is no complete execution at all.
    "circular_wait": lambda n: modes("safe", deadlock="violation"),
    "starved_fanin": lambda n: modes("safe", deadlock="violation"),
}


def fifo_sensitive(family: str, params) -> bool:
    """One sender, several messages to one receiver, order asserted."""
    return family == "racy_fanin" and len(params) == 3 and params[0] == 1 < params[1] and params[2]


def sends(program) -> int:
    from repro.program.ast import If, Send, While

    def count(statements) -> int:
        total = 0
        for statement in statements:
            total += isinstance(statement, Send)
            if isinstance(statement, If):
                total += count(statement.then_body) + count(statement.else_body)
            elif isinstance(statement, While):
                total += count(statement.body)
        return total

    return sum(count(thread.body) for thread in program.threads)


_ANSWERS: dict = {}


def ground_truth(family: str, params, program) -> dict:
    """Answers per mode with their source; rules are checked when cheap."""
    if (family, params) not in _ANSWERS:
        _ANSWERS[family, params] = _ground_truth(family, params, program)
    return dict(_ANSWERS[family, params])


def _ground_truth(family: str, params, program) -> dict:
    if family not in RULES:
        result = explore(program)
        return {mode: {"verdict": v, "source": "explorer"} for mode, v in verdicts(result).items()}
    answers = RULES[family](*params)
    source = "rule"
    if sends(program) <= EXPLORE_SENDS and not fifo_sensitive(family, params):
        result = explore(program, EXPLORE_RUNS)
        if result is not None:
            if verdicts(result) != answers:
                raise SystemExit(
                    f"rule for {family}{params} says {answers}, explorer {verdicts(result)}"
                )
            source = "rule, checked by explorer"
    print(f"{family}{tuple(params)}: {source}", flush=True)
    return {mode: {"verdict": v, "source": source} for mode, v in answers.items()}


def enum_table() -> dict:
    table = {}
    for k in workloads.EnumFanin.sizes:
        entry = {"models": math.factorial(k), "source": "construction: k! orders"}
        if k <= 4:
            result = explore(racy_fanin(k))
            if len(result.matchings) != entry["models"]:
                raise SystemExit(f"explorer found {len(result.matchings)} for k={k}")
            entry["matchings"] = sorted(
                sorted([list(recv), list(send)] for recv, send in matching)
                for matching in result.matchings
            )
            entry["source"] = "ExplicitStateExplorer"
        table[str(k)] = entry
    return table


#: Registry workload -> (family, positional parameters of its generator).
REGISTRY = {
    "racy_fanin": lambda p: ("racy_fanin", (p["senders"], p.get("messages", 1), True)),
    "nonblocking_fanin": lambda p: ("nonblocking_fanin", (p["senders"],)),
    "pipeline": lambda p: ("pipeline", (max(p["senders"], 2),)),
    "token_ring": lambda p: ("token_ring", (max(p["senders"], 2),)),
    "client_server": lambda p: ("client_server", (p["senders"],)),
    "circular_wait": lambda p: ("circular_wait", (max(p["senders"], 2),)),
    "starved_fanin": lambda p: ("starved_fanin", (p["senders"],)),
    "figure1": lambda p: ("figure1", ()),
}


def service_table() -> dict:
    table = {}
    for workload, params in workloads.SERVICE_PROGRAMS:
        family, positional = REGISTRY[workload](params)
        answers = ground_truth(family, positional, build_program(workload, params))
        for mode in workloads.SERVICE_MODES:
            table[workloads.service_key(workload, params, mode)] = answers[mode]
    return table


def batch_table() -> dict:
    return {
        label: ground_truth(family, params, program)["safety"]
        for label, family, params, program in workloads.batch_shapes()
    }


def main() -> int:
    table = {
        "enum_fanin": enum_table(),
        "service_stream": service_table(),
        "batch_parallel": batch_table(),
    }
    path = os.path.join(workloads.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
