"""The pre-arena CDCL SAT solver, kept as the differential reference.

This is the object-graph implementation the flat-memory core in
:mod:`repro.smt.sat` replaced: clauses are Python :class:`_Clause` objects
chased through dict-of-list watch tables.  It is retained (renamed, and
with the arena core's trail-keeping ``add_clause`` / ``solve`` contract
ported line for line) so the differential harness can assert that the
arena core is *search-order identical* — same verdicts, same models, same
conflict / decision / propagation counts — on random CNFs, incremental
assumption streams and the 300-formula mixed-theory corpus.

Do not use this solver outside tests; it is the slow path by design.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.smt.sat import (
    DEFAULT_CLAUSE_DECAY,
    DEFAULT_REDUCE_BASE,
    DEFAULT_REDUCE_GROWTH,
    DEFAULT_THEORY_BUMP,
    SatResult,
    SatStats,
    TheoryListener,
    TheoryTimeout,
    luby,
)
from repro.utils.errors import SolverError

__all__ = ["LegacySatSolver"]


class _TheoryReason:
    """Placeholder reason for a theory-propagated literal.

    Materialised into a real clause by :meth:`SatSolver._reason_for` only
    when conflict analysis needs it — that is what makes theory
    explanations lazy.
    """

    __slots__ = ("lit",)

    def __init__(self, lit: int) -> None:
        self.lit = lit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TheoryReason({self.lit})"


def _dedupe(lits: Iterable[int]) -> List[int]:
    seen = set()
    out: List[int] = []
    for lit in lits:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


class _Clause:
    """A clause with its first two literal slots acting as watches.

    ``pinned`` marks learned clauses :meth:`SatSolver.reduce_db` must never
    delete (theory lemmas kept under ``pin_theory_lemmas``); ``deleted``
    marks victims of a reduction while they are being unlinked from the
    watch lists; ``lbd`` is the literal-block distance at learn time (the
    number of distinct decision levels in the clause — "glue" clauses with
    a small LBD are kept through reductions, Glucose-style).
    """

    __slots__ = ("lits", "learned", "activity", "pinned", "deleted", "lbd")

    def __init__(
        self, lits: List[int], learned: bool = False, pinned: bool = False
    ) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.pinned = pinned
        self.deleted = False
        self.lbd = len(lits)

    def __len__(self) -> int:
        return len(self.lits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clause({self.lits})"


class LegacySatSolver:
    """CDCL SAT solver with assumptions.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve() is SatResult.SAT
        assert solver.value(b) is True
    """

    _UNASSIGNED = 0

    def __init__(
        self,
        restart_base: int = 100,
        decay: float = 0.95,
        clause_decay: float = DEFAULT_CLAUSE_DECAY,
        reduce_db: bool = True,
        reduce_base: int = DEFAULT_REDUCE_BASE,
        reduce_growth: float = DEFAULT_REDUCE_GROWTH,
        theory_bump: float = DEFAULT_THEORY_BUMP,
        pin_theory_lemmas: bool = False,
    ) -> None:
        if reduce_base < 1:
            raise SolverError(f"reduce_base must be >= 1, got {reduce_base}")
        if reduce_growth < 1.0:
            raise SolverError(f"reduce_growth must be >= 1, got {reduce_growth}")
        self._num_vars = 0
        self._clauses: List[_Clause] = []       # problem clauses
        self._learned: List[_Clause] = []       # learned clauses (reducible)
        self._watches: Dict[int, List[_Clause]] = {}
        # Assignment state; index 0 unused.
        self._assign: List[int] = [0]          # 0 unassigned, 1 true, -1 false
        self._level: List[int] = [0]
        # Reasons are clauses, or _TheoryReason placeholders that
        # _reason_for materialises on demand.
        self._reason: List[Optional[object]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # The assumption each bottom decision level was opened for.
        self._assumed: List[int] = []
        self._queue_head = 0
        # Decision heuristic.
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._var_inc = 1.0
        self._decay = decay
        self._heap: List[Tuple[float, int]] = []
        # Learned-clause database reduction.
        self._cla_inc = 1.0
        self._clause_decay = clause_decay
        self._reduce_enabled = reduce_db
        self._reduce_base = reduce_base
        self._reduce_limit = reduce_base
        self._reduce_growth = reduce_growth
        self._reduce_conflict_floor = max(1, reduce_base // 6)
        # Theory-aware branching / theory lemma pinning.
        self._theory_bump = theory_bump
        self._pin_theory_lemmas = pin_theory_lemmas
        self._conflict_from_theory = False
        # Restarts.
        self._restart_base = restart_base
        # Bookkeeping.
        self._ok = True
        self.stats = SatStats()
        self._conflict_limit: Optional[int] = None
        # Online theory integration.
        self._theory: Optional[TheoryListener] = None
        self._theory_head = 0  # trail literals already streamed to the theory

    def set_theory(self, listener: Optional[TheoryListener]) -> None:
        """Attach (or detach) the online theory listener.

        Must be done before solving; literals already on the trail are
        streamed at the next ``solve`` call.
        """
        self._theory = listener
        self._theory_head = 0

    # ------------------------------------------------------------------ setup

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assign.append(self._UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        var = self._num_vars
        self._watches.setdefault(var, [])
        self._watches.setdefault(-var, [])
        heapq.heappush(self._heap, (0.0, var))
        return var

    def ensure_vars(self, count: int) -> None:
        """Make sure variables ``1..count`` exist."""
        while self._num_vars < count:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses) + len(self._learned)

    @property
    def num_learned(self) -> int:
        """Live learned clauses (the population :meth:`reduce_db` bounds)."""
        return len(self._learned)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` if the formula became trivially unsat.

        Same contract as :meth:`repro.smt.sat.SatSolver.add_clause`: the
        trail is kept, and only a clause that is falsified or unit under it
        backjumps, to its assertion level.
        """
        if not self._ok:
            return False
        unique: List[int] = []
        seen = set()
        for lit in lits:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            var = abs(lit)
            self.ensure_vars(var)
            if lit in seen:
                continue
            if -lit in seen:
                return True  # tautology
            seen.add(lit)
            unique.append(lit)

        # Remove literals already false at level 0; detect satisfied clauses.
        filtered: List[int] = []
        for lit in unique:
            val = self._lit_value(lit)
            if val is True and self._level[abs(lit)] == 0:
                return True
            if val is False and self._level[abs(lit)] == 0:
                continue
            filtered.append(lit)

        if not filtered:
            self._ok = False
            return False
        if len(filtered) == 1:
            self._backtrack(0)
            if not self._enqueue(filtered[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True

        if self._decision_level() > 0:
            # Non-false literals first, then false ones by descending level.
            filtered.sort(
                key=lambda lit: -self._level[abs(lit)]
                if self._lit_value(lit) is False
                else -(1 << 30)
            )
        clause = _Clause(filtered)
        self._attach(clause)
        self._clauses.append(clause)
        if self._decision_level() > 0:
            l0, l1 = filtered[0], filtered[1]
            if self._lit_value(l1) is False:
                v0 = self._lit_value(l0)
                if v0 is False and self._level[abs(l0)] == self._level[abs(l1)]:
                    self._backtrack(self._level[abs(l0)] - 1)
                elif v0 is not True:
                    self._backtrack(self._level[abs(l1)])
                    self._enqueue(l0, clause)
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    # ------------------------------------------------------------------ values

    def _lit_value(self, lit: int) -> Optional[bool]:
        val = self._assign[abs(lit)]
        if val == self._UNASSIGNED:
            return None
        return (val > 0) == (lit > 0)

    def value(self, var: int) -> Optional[bool]:
        """The value of a variable in the last model (None if unassigned)."""
        if var <= 0 or var > self._num_vars:
            raise SolverError(f"unknown variable {var}")
        val = self._assign[var]
        return None if val == self._UNASSIGNED else val > 0

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last successful ``solve``."""
        return {v: self._assign[v] > 0 for v in range(1, self._num_vars + 1)
                if self._assign[v] != self._UNASSIGNED}

    # ------------------------------------------------------------------ solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        theory_conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> SatResult:
        """Determine satisfiability under the given assumption literals.

        Returns :data:`SatResult.UNKNOWN` only when ``conflict_limit``
        (total conflicts), ``theory_conflict_limit`` (theory conflicts
        only — purely Boolean search stays unbudgeted, mirroring the
        offline lazy loop's iteration bound) or ``deadline`` (a
        ``time.monotonic`` instant, polled every few hundred search steps
        so the clock read stays off the propagation hot path) is hit.

        The previous call's trail is reused exactly as in
        :meth:`repro.smt.sat.SatSolver.solve`.
        """
        if not self._ok:
            return SatResult.UNSAT
        self._conflict_limit = conflict_limit
        keep = 0
        while (
            keep < len(self._assumed)
            and keep < len(assumptions)
            and self._assumed[keep] == assumptions[keep]
        ):
            keep += 1
        if keep < len(assumptions):
            self._backtrack(keep)
        else:
            del self._assumed[keep:]
        if self._decision_level() == 0:
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return SatResult.UNSAT
        try:
            return self._search(assumptions, theory_conflict_limit, deadline)
        except TheoryTimeout:
            self._backtrack(0)
            return SatResult.UNKNOWN

    def _search(
        self,
        assumptions: Sequence[int],
        theory_conflict_limit: Optional[int],
        deadline: Optional[float],
    ) -> SatResult:
        """The CDCL loop of :meth:`solve`, from the kept trail onwards."""
        conflicts_total = 0
        theory_conflicts_base = self.stats.theory_conflicts
        restart_count = 0
        restart_budget = self._restart_base * luby(1)
        # Poll on the first iteration (an already-lapsed deadline must win
        # even on trivial instances), then every 256 search steps.
        deadline_poll = 255

        while True:
            if deadline is not None:
                deadline_poll += 1
                if deadline_poll >= 256:
                    deadline_poll = 0
                    if time.monotonic() >= deadline:
                        self._backtrack(0)
                        return SatResult.UNKNOWN
            conflict = self._propagate()
            if conflict is None:
                conflict = self._theory_sync()
            if conflict is None:
                # No conflict: apply assumptions first, then decide.
                if self._decision_level() < len(assumptions):
                    lit = assumptions[self._decision_level()]
                    val = self._lit_value(lit)
                    if val is False:
                        return SatResult.UNSAT
                    # An already-true assumption opens an empty decision
                    # level, so the assumption indexing stays aligned.
                    self._new_decision_level()
                    self._assumed.append(lit)
                    if val is None:
                        self._enqueue(lit, None)
                    continue

                lit = self._pick_branch_literal()
                if lit is not None:
                    self.stats.decisions += 1
                    self._new_decision_level()
                    self._enqueue(lit, None)
                    continue
                conflict = self._theory_final()
                if conflict is None:
                    return SatResult.SAT

            # Conflict handling (Boolean and theory conflicts alike).
            self.stats.conflicts += 1
            conflicts_total += 1
            from_theory = self._conflict_from_theory
            self._conflict_from_theory = False
            conflict_level = 0
            for lit in conflict.lits:
                level = self._level[abs(lit)]
                if level > conflict_level:
                    conflict_level = level
            if not conflict.lits or conflict_level == 0:
                self._ok = False
                return SatResult.UNSAT
            if conflict_level < self._decision_level():
                # Theory conflicts may surface only after the offending
                # literals' level is already left behind (e.g. a final-check
                # conflict over early assignments): re-anchor analysis at the
                # deepest level actually mentioned by the clause.
                self._backtrack(conflict_level)
            learned, backtrack_level, lbd = self._analyze(conflict)
            self._backtrack(backtrack_level)
            self._learn(learned, lbd, theory_lemma=from_theory)
            self._decay_activities()
            if (
                self._reduce_enabled
                and len(self._learned) >= self._reduce_limit
                and conflicts_total >= self._reduce_conflict_floor
            ):
                # The conflict floor keeps warm incremental checks (a few
                # conflicts against a hot clause set) from shedding exactly
                # the lemmas that make them cheap; only a search that is
                # actually struggling pays a reduction.
                self.reduce_db()
                self._reduce_limit = max(
                    int(self._reduce_limit * self._reduce_growth),
                    self._reduce_limit + 1,
                )
            if (
                self._conflict_limit is not None
                and conflicts_total >= self._conflict_limit
            ):
                self._backtrack(0)
                return SatResult.UNKNOWN
            if (
                theory_conflict_limit is not None
                and self.stats.theory_conflicts - theory_conflicts_base
                >= theory_conflict_limit
            ):
                self._backtrack(0)
                return SatResult.UNKNOWN
            if conflicts_total >= restart_budget:
                restart_count += 1
                self.stats.restarts += 1
                restart_budget = conflicts_total + self._restart_base * luby(
                    restart_count + 1
                )
                self._backtrack(0)
                if self._theory is not None:
                    self._theory.on_restart()

    # ------------------------------------------------------------------ theory

    def _theory_conflict_clause(self, conflict: Sequence[int]) -> _Clause:
        """Turn a theory explanation (true literals) into an all-false clause."""
        return _Clause(_dedupe(-lit for lit in conflict))

    def _theory_sync(self) -> Optional[_Clause]:
        """Stream new trail literals to the theory and absorb its feedback.

        Alternates between feeding the unstreamed trail suffix, enqueuing
        theory propagations, and Boolean propagation until a fixpoint (or a
        conflict).  Called whenever unit propagation reaches a fixpoint.
        """
        theory = self._theory
        if theory is None:
            return None
        while True:
            while self._theory_head < len(self._trail):
                lit = self._trail[self._theory_head]
                self._theory_head += 1
                conflict = theory.on_assert(lit)
                if conflict is not None:
                    return self._count_theory_conflict(
                        self._theory_conflict_clause(conflict)
                    )
            enqueued = False
            for lit in theory.propagations():
                value = self._lit_value(lit)
                if value is True:
                    continue
                if value is False:
                    # The theory implies a literal the Boolean search already
                    # negated: explanation -> lit is a conflict clause.
                    explanation = [e for e in theory.explain(lit) if e != lit]
                    clause = _Clause(_dedupe([lit] + [-e for e in explanation]))
                    return self._count_theory_conflict(clause)
                self.stats.theory_propagations += 1
                self._bump_var_theory(abs(lit))
                self._enqueue(lit, _TheoryReason(lit))
                enqueued = True
            if not enqueued:
                return None
            # A conflict here comes from ordinary clause propagation (merely
            # triggered by a theory-implied literal): it is a Boolean
            # conflict and must not be counted against the theory budget.
            conflict = self._propagate()
            if conflict is not None:
                return conflict

    def _theory_final(self) -> Optional[_Clause]:
        """Give the theory its completeness check on the full assignment."""
        if self._theory is None:
            return None
        conflict = self._theory_final_check()
        if conflict is None:
            return None
        return self._count_theory_conflict(self._theory_conflict_clause(conflict))

    def _theory_final_check(self) -> Optional[Sequence[int]]:
        assert self._theory is not None
        return self._theory.on_final_check()

    def _count_theory_conflict(self, clause: _Clause) -> _Clause:
        self.stats.theory_conflicts += 1
        self._conflict_from_theory = True
        if len(self._trail) < self._num_vars:
            self.stats.theory_partial_conflicts += 1
        # Theory-aware branching: the atoms a theory explanation names are
        # exactly the "almost conflicting" ones — bias decisions toward them.
        for lit in clause.lits:
            self._bump_var_theory(abs(lit))
        return clause

    def _reason_for(self, var: int):
        """The reason clause of ``var``, materialising lazy theory reasons."""
        reason = self._reason[var]
        if type(reason) is _TheoryReason:
            assert self._theory is not None
            lit = reason.lit
            explanation = [e for e in self._theory.explain(lit) if e != lit]
            clause = _Clause(_dedupe([lit] + [-e for e in explanation]))
            self._reason[var] = clause
            return clause
        return reason

    # ------------------------------------------------------------------ internals

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        self.stats.max_decision_level = max(
            self.stats.max_decision_level, self._decision_level()
        )

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0]].append(clause)
        self._watches[clause.lits[1]].append(clause)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        val = self._lit_value(lit)
        if val is not None:
            return val
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None."""
        while self._queue_head < len(self._trail):
            lit = self._trail[self._queue_head]
            self._queue_head += 1
            self.stats.propagations += 1
            false_lit = -lit
            watch_list = self._watches[false_lit]
            new_watch_list: List[_Clause] = []
            conflict: Optional[_Clause] = None
            i = 0
            while i < len(watch_list):
                clause = watch_list[i]
                i += 1
                lits = clause.lits
                # Normalise so that the false literal is in slot 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) is True:
                    new_watch_list.append(clause)
                    continue
                # Look for a replacement watch.
                replacement = None
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) is not False:
                        replacement = k
                        break
                if replacement is not None:
                    lits[1], lits[replacement] = lits[replacement], lits[1]
                    self._watches[lits[1]].append(clause)
                    continue
                # Clause is unit or conflicting.
                new_watch_list.append(clause)
                if self._lit_value(first) is False:
                    # Conflict: keep the remaining clauses watched and stop.
                    while i < len(watch_list):
                        new_watch_list.append(watch_list[i])
                        i += 1
                    conflict = clause
                else:
                    self._enqueue(first, clause)
            self._watches[false_lit] = new_watch_list
            if conflict is not None:
                self._queue_head = len(self._trail)
                return conflict
        return None

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first), the level to
        backtrack to, and the clause's literal-block distance (computed
        here, while every literal is still assigned its conflict level).
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        reason: Optional[_Clause] = conflict
        index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            assert reason is not None
            self._bump_clause(reason)
            start = 0 if lit is None else 1
            for p in reason.lits[start:] if lit is not None and reason.lits[0] == lit else reason.lits:
                var = abs(p)
                if p == lit:
                    continue
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self._level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(p)
            # Find the next literal on the trail to resolve on.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self._reason_for(var)
        learned[0] = -lit

        # Compute the backtrack level (second highest level in the clause).
        if len(learned) == 1:
            backtrack_level = 0
        else:
            max_i = 1
            for i in range(2, len(learned)):
                if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backtrack_level = self._level[abs(learned[1])]
        lbd = len({self._level[abs(lit)] for lit in learned})
        return learned, backtrack_level, lbd

    def _learn(
        self, learned: List[int], lbd: Optional[int] = None,
        theory_lemma: bool = False,
    ) -> None:
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        clause = _Clause(
            list(learned),
            learned=True,
            pinned=theory_lemma and self._pin_theory_lemmas,
        )
        if lbd is not None:
            clause.lbd = lbd
        clause.activity = self._cla_inc
        self._attach(clause)
        self._learned.append(clause)
        if len(self._learned) > self.stats.max_live_learned:
            self.stats.max_live_learned = len(self._learned)
        self._enqueue(learned[0], clause)

    def reduce_db(self) -> int:
        """Drop the coldest half of the deletable learned clauses.

        A learned clause is *not* deletable when it is binary (cheap to keep,
        expensive to relearn), a glue clause (LBD <= 3: it connects few
        decision levels and re-deriving it is what drives the conflict-count
        blow-up naive reduction suffers), pinned (a theory lemma under
        ``pin_theory_lemmas``), or reason-locked (currently the reason of a
        trail literal — deleting it would corrupt conflict analysis).
        Victims are unlinked from the watch lists in one sweep.  Returns the
        number of clauses deleted.
        """
        locked = set()
        for lit in self._trail:
            reason = self._reason[abs(lit)]
            if type(reason) is _Clause:
                locked.add(id(reason))
        deletable = [
            clause
            for clause in self._learned
            if len(clause.lits) > 2
            and clause.lbd > 3
            and not clause.pinned
            and id(clause) not in locked
        ]
        victims = sorted(deletable, key=lambda c: c.activity)
        victims = victims[: len(victims) // 2]
        if not victims:
            return 0
        for clause in victims:
            clause.deleted = True
        for lit, watchers in self._watches.items():
            if any(clause.deleted for clause in watchers):
                self._watches[lit] = [c for c in watchers if not c.deleted]
        self._learned = [c for c in self._learned if not c.deleted]
        self.stats.reduce_db_rounds += 1
        self.stats.clauses_deleted += len(victims)
        return len(victims)

    def remove_satisfied(self) -> int:
        """Delete the clauses satisfied at level 0 (see the arena core)."""
        victims = 0
        for clause in self._clauses + self._learned:
            if any(
                self._lit_value(lit) is True and self._level[abs(lit)] == 0
                for lit in clause.lits
            ):
                clause.deleted = True
                victims += 1
        if not victims:
            return 0
        for lit in self._trail:
            reason = self._reason[abs(lit)]
            if type(reason) is _Clause and reason.deleted:
                self._reason[abs(lit)] = None
        for lit, watchers in self._watches.items():
            if any(clause.deleted for clause in watchers):
                self._watches[lit] = [c for c in watchers if not c.deleted]
        self._clauses = [c for c in self._clauses if not c.deleted]
        self._learned = [c for c in self._learned if not c.deleted]
        return victims

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var] = self._UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        del self._assumed[level:]
        self._queue_head = len(self._trail)
        if self._theory is not None and self._theory_head > len(self._trail):
            self._theory_head = len(self._trail)
            self._theory.on_backjump(self._theory_head)

    def _pick_branch_literal(self) -> Optional[int]:
        while self._heap:
            neg_activity, var = heapq.heappop(self._heap)
            if self._assign[var] != self._UNASSIGNED:
                continue
            if -neg_activity != self._activity[var]:
                # Stale duplicate: the variable was bumped after this entry
                # was pushed, so a fresher entry is (or was) in the heap.
                continue
            return var if self._phase[var] else -var
        # Fall back to a linear scan (the heap should never run dry — every
        # unassigned variable owns a current entry — but stay safe).
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == self._UNASSIGNED:
                return var if self._phase[var] else -var
        return None

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            self._rescale_var_activities()
        heapq.heappush(self._heap, (-self._activity[var], var))

    def _bump_var_theory(self, var: int) -> None:
        """Extra activity for atoms named by theory conflicts/propagations."""
        if self._theory_bump <= 0.0 or var > self._num_vars:
            return
        self._activity[var] += self._var_inc * self._theory_bump
        if self._activity[var] > 1e100:
            self._rescale_var_activities()
        heapq.heappush(self._heap, (-self._activity[var], var))

    def _rescale_var_activities(self) -> None:
        for v in range(1, self._num_vars + 1):
            self._activity[v] *= 1e-100
        self._var_inc *= 1e-100
        # Every heap entry is now stale; rebuild instead of letting
        # _pick_branch_literal drain a heap full of duplicates.
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self._activity[v], v)
            for v in range(1, self._num_vars + 1)
            if self._assign[v] == self._UNASSIGNED
        ]
        heapq.heapify(self._heap)

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learned:
            return
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for learned in self._learned:
                learned.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._decay
        self._cla_inc /= self._clause_decay
