"""Matching enumeration on a long-lived session: trail reuse and clause-DB
hygiene.

``pairings()`` asserts one blocking clause per model inside a solver scope.
The SAT core keeps the trail across those clauses (it backjumps only to a
blocking clause's assertion level), and closing the scope deletes every
clause the retired selector satisfies.  These tests pin both effects with
the counters a long-lived service session would show.
"""

from repro.verification.session import VerificationSession
from repro.workloads import racy_fanin


def _pass_theory_asserts(session):
    """(models, theory asserts) of one full pairings() pass."""
    models = 0
    asserts = 0
    generator = session.pairings()
    while True:
        matching = next(generator, None)
        # Every next() runs exactly one check; statistics() describes it.
        asserts += session.statistics()["theory_asserts"]
        if matching is None:
            return models, asserts
        models += 1


def test_theory_asserts_per_model_are_a_fifth_of_trail_replay():
    # Replaying the trail from level 0 for every model (the SAT core before
    # trail reuse) cost 970 theory asserts per model on a warm racy_fanin(6)
    # session (673 on its first pass), and 842 per model over the warm
    # benchmark mix racy_fanin(3..6).  A fifth of the mix figure is the bar.
    session = VerificationSession.from_program(racy_fanin(6), seed=0)
    models, _cold = _pass_theory_asserts(session)
    assert models == 720
    models, asserts = _pass_theory_asserts(session)
    assert models == 720
    assert asserts / models <= 842 / 5


def test_retired_scopes_leave_no_clauses_behind():
    session = VerificationSession.from_program(racy_fanin(5), seed=0)
    sat = session.backend._engine._sat
    problem_clauses = []
    totals = []
    for _ in range(8):
        assert len(session.enumerate_pairings()) == 120
        problem_clauses.append(len(sat.problem_refs()))
        totals.append(sat.num_clauses)
        # pop() left the trail at level 0 and deleted every clause the
        # retired selector satisfies, by compacting the arena.
        for ref in sat.problem_refs() + sat.learned_refs():
            assert not any(
                sat.value(abs(lit)) == (lit > 0) for lit in sat.clause_lits(ref)
            )
        assert sat.arena_words == sat.arena_live_words() + 1
    # Each pass asserts 120 blocking clauses; none of them outlives it.
    assert len(set(problem_clauses)) == 1
    # What still grows are lemmas about the base problem, learned while
    # enumerating (they never mention a selector).  They saturate: the last
    # three passes add fewer than the first three.  Before the clean-up
    # every pass left its 120 blocking clauses and their lemmas behind.
    growth = [after - before for before, after in zip(totals, totals[1:])]
    assert sum(growth[-3:]) < sum(growth[:3]) < 120
