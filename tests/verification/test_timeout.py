"""Tests for per-query solver deadlines: ``timeout_s`` on sessions and
batches, the UNKNOWN(timeout) verdict, and its non-caching semantics."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.smt import CheckResult, DpllTBackend, Ge, IntVal, IntVar
from repro.verification.cache import ResultCache, make_cache_key
from repro.verification.result import Verdict
from repro.verification.session import VerificationSession, verify_many
from repro.workloads import circular_wait, figure1_program, pipeline

x = IntVar("x")


class TestBackendDeadline:
    def test_lapsed_deadline_returns_unknown(self):
        backend = DpllTBackend()
        backend.add(Ge(x, IntVal(0)))
        backend.set_deadline(time.monotonic() - 1.0)
        assert backend.check() is CheckResult.UNKNOWN

    def test_clearing_deadline_restores_solving(self):
        backend = DpllTBackend()
        backend.add(Ge(x, IntVal(0)))
        backend.set_deadline(time.monotonic() - 1.0)
        assert backend.check() is CheckResult.UNKNOWN
        backend.set_deadline(None)
        assert backend.check() is CheckResult.SAT

    def test_generous_deadline_does_not_interfere(self):
        backend = DpllTBackend()
        backend.add(Ge(x, IntVal(0)))
        backend.set_deadline(time.monotonic() + 60.0)
        assert backend.check() is CheckResult.SAT


class TestSessionTimeout:
    def test_zero_budget_reports_timeout(self):
        session = VerificationSession.from_program(figure1_program(assert_a_is_y=True), seed=0)
        result = session.verdict(timeout_s=0.0)
        assert result.verdict is Verdict.UNKNOWN
        assert result.unknown_reason == "timeout"
        assert result.timed_out

    def test_timed_out_result_is_not_memoised(self):
        """A bigger budget must be able to retry: the session memo skips
        UNKNOWN(timeout) verdicts."""
        session = VerificationSession.from_program(figure1_program(assert_a_is_y=True), seed=0)
        assert session.verdict(timeout_s=0.0).timed_out
        retry = session.verdict()
        assert retry.verdict is Verdict.VIOLATION
        assert not retry.from_cache

    def test_generous_budget_solves_normally(self):
        session = VerificationSession.from_program(figure1_program(assert_a_is_y=True), seed=0)
        result = session.verdict(timeout_s=60.0)
        assert result.verdict is Verdict.VIOLATION
        assert result.unknown_reason is None

    def test_deadlock_mode_timeout(self):
        session = VerificationSession.from_program(
            circular_wait(3), seed=0, on_deadlock="static"
        )
        result = session.deadlocks(timeout_s=0.0)
        assert result.verdict is Verdict.UNKNOWN
        assert result.unknown_reason == "timeout"
        retry = session.deadlocks()
        assert retry.verdict is Verdict.VIOLATION

    def test_orphan_mode_timeout(self):
        session = VerificationSession.from_program(pipeline(3), seed=0)
        result = session.orphans(timeout_s=0.0)
        assert result.verdict is Verdict.UNKNOWN
        assert result.unknown_reason == "timeout"
        retry = session.orphans()
        assert retry.verdict in (Verdict.SAFE, Verdict.VIOLATION)

    def test_backend_deadline_cleared_after_timeout(self):
        """The deadline is call-scoped: a timed-out verdict() must not leave
        the backend poisoned for the next check."""
        session = VerificationSession.from_program(figure1_program(assert_a_is_y=True), seed=0)
        session.verdict(timeout_s=0.0)
        assert session._backend._engine.check() in (
            CheckResult.SAT,
            CheckResult.UNSAT,
        )


class TestBatchTimeout:
    def test_serial_batch_applies_budget_per_item(self):
        results = verify_many(
            [figure1_program(assert_a_is_y=True), pipeline(3)], timeout_s=0.0
        )
        assert [r.verdict for r in results] == [Verdict.UNKNOWN] * 2
        assert all(r.unknown_reason == "timeout" for r in results)

    def test_parallel_batch_applies_budget_per_item(self):
        results = verify_many(
            [figure1_program(assert_a_is_y=True), figure1_program(assert_a_is_y=True)], jobs=2, timeout_s=0.0
        )
        assert all(r.unknown_reason == "timeout" for r in results)

    def test_batch_without_budget_is_conclusive(self):
        results = verify_many([figure1_program(assert_a_is_y=True)], timeout_s=None)
        assert results[0].verdict is Verdict.VIOLATION


class TestTimeoutCacheInteraction:
    def test_timed_out_results_never_cached(self, tmp_path):
        session = VerificationSession.from_program(figure1_program(assert_a_is_y=True), seed=0)
        result = session.verdict(timeout_s=0.0)
        cache = ResultCache(directory=str(tmp_path / "cache"))
        key = make_cache_key(session.trace)
        assert cache.store(key, result) is False
        assert cache.lookup(key, session.trace) is None

    def test_cached_conclusive_answer_wins_over_budget(self, tmp_path):
        """Once a conclusive answer is on disk, even a zero budget gets it:
        cache lookup precedes solving."""
        cache_dir = str(tmp_path / "cache")
        first = verify_many([figure1_program(assert_a_is_y=True)], cache_dir=cache_dir)
        assert first[0].verdict is Verdict.VIOLATION
        second = verify_many(
            [figure1_program(assert_a_is_y=True)], cache_dir=cache_dir, timeout_s=0.0
        )
        assert second[0].verdict is Verdict.VIOLATION
        assert second[0].from_cache


class TestCliTimeout:
    def test_single_query_timeout_flag(self, capsys):
        from repro.verification.cli import main

        rc = main(["--workload", "figure1", "--timeout", "0"])
        out = capsys.readouterr().out
        assert rc == 0  # unknown is not a violation
        assert "unknown reason: timeout" in out

    def test_batch_timeout_flag(self, capsys):
        from repro.verification.cli import main

        rc = main(["--workload", "figure1", "--repeat", "2", "--timeout", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reason=timeout" in out


class TestFourierMotzkinDeadline:
    """scatter_gather(4, assert_order=True) moves the arithmetic lane to
    Fourier–Motzkin, whose row count explodes.  The LIA lane must poll the
    deadline inside the elimination itself, unwind and answer
    UNKNOWN(timeout), leaving the session usable.  It runs in a child
    process under an address-space cap, so a regression fails on time or
    MemoryError instead of exhausting the machine."""

    SCRIPT = textwrap.dedent(
        """
        import json, resource, sys, time
        cap = 1 << 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from repro.smt import And, BoolVar, Not
        from repro.verification.session import VerificationSession
        from repro.workloads import scatter_gather
        session = VerificationSession.from_program(
            scatter_gather(4, assert_order=True), seed=0
        )
        session.backend
        answers = []
        for _ in range(2):
            start = time.monotonic()
            result = session.verdict(timeout_s=2)
            answers.append(
                [result.verdict.name, result.unknown_reason,
                 time.monotonic() - start]
            )
        flag = BoolVar("fm_probe")
        after = session.backend.check(And(flag, Not(flag))).name
        print(json.dumps({"answers": answers, "after": after}))
        """
    )

    def test_unknown_timeout_within_budget_and_session_survives(self):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        report = json.loads(child.stdout.strip().splitlines()[-1])
        for verdict, reason, seconds in report["answers"]:
            assert (verdict, reason) == ("UNKNOWN", "timeout")
            assert seconds < 4.0
        assert report["after"] == "UNSAT"
