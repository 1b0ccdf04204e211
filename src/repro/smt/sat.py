"""A CDCL SAT solver with an online theory hook, on flat typed memory.

This is a conflict-driven clause-learning solver in the MiniSat lineage:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style activity decision heuristic with phase saving,
* Luby-sequence restarts,
* incremental solving under assumptions that keeps the trail between
  calls (used by DPLL(T) and by the verification layer to enumerate
  multiple witnesses: a blocking clause backjumps only to its assertion
  level, and the next call keeps every level its assumptions still own),
* learned-clause database reduction with arena compaction (see below),
* theory-aware branching, and an online :class:`TheoryListener` hook:
  every trail literal is streamed to an attached theory, which may veto
  the partial assignment with a conflict explanation, inject
  theory-implied literals (with lazily materialised reason clauses), and
  is told about backjumps and restarts so its internal state stays
  trail-synchronised.

Flat-memory layout
------------------

The hot path holds no per-clause Python objects.  All clause storage is a
single contiguous ``array('i')`` **arena** of int32 words; a clause is an
integer offset into it (a *cref*) addressing the record::

    [ header | lbd | activity-slot | lit0 | lit1 | ... | lit_{n-1} ]

``header`` packs the literal count and flag bits (``size << 4 | flags``);
``lbd`` is the learn-time literal-block distance; ``activity-slot``
indexes a parallel float list holding the clause activity (-1 when the
clause has none).  The first two literal slots are the watched literals,
exactly as in the object core this replaced.

Watch lists are flat per-literal Python lists of ``(ref, blocker)`` int
pairs stored inline (``[ref0, blk0, ref1, blk1, ...]``), indexed by
``2*var`` for the positive and ``2*var + 1`` for the negative literal.
The *blocker* is a cached copy of the clause's other watched literal: the
propagation inner loop tests it against the flat ``_assign`` array and
skips the clause without touching the arena when it is already true.  To
stay search-order identical with the reference core the fast path only
fires when the blocker is *fresh* (still the clause's first watched
literal — one extra arena read); a stale-but-true blocker falls through
to the full path, which behaves exactly like the object core did.

Binary clauses never touch the propagation path's arena reads: their
watch entries carry a **negative** ref (``-cref``) and the blocker *is*
the other literal, so unit propagation over a binary clause is a pure
watch-list operation.  (The record still exists in the arena so that
conflict analysis, activity bumping and reduceDB treat all clauses
uniformly.)

Assignments, decision levels, reasons, saved phases and the trail are
flat arrays indexed by variable (plain Python lists of small ints — on
CPython, list indexing outruns ``array('b')``/``array('i')`` element
access because the latter box a fresh int per read).  ``_assign`` holds
``0`` unassigned / ``1`` true / ``-1`` false, so the truth value of a
literal is one index plus one sign flip, inlined into every hot loop.
``_reason`` holds ``0`` (decision / none), a positive cref, or ``-1``
for a lazy theory reason that :meth:`SatSolver._materialize_reason`
turns into a real arena record only when conflict analysis needs it.

:meth:`SatSolver.reduce_db` is an **arena compaction**: victims are
flagged, live records (problem clauses, surviving learned clauses, and
reason-locked lazily-materialised theory explanations) are copied into a
fresh arena, and watch lists, reason refs and the learned-clause index
are remapped in one sweep.  ``stats.compactions`` counts the sweeps and
``stats.arena_bytes`` tracks the arena footprint.

Literals are non-zero Python ints: variable ``v`` is the positive literal
``v`` and its negation is ``-v``.  Variables are 1-based.
"""

from __future__ import annotations

import ctypes
import heapq
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults
from repro.smt import satkernel
from repro.utils.errors import SolverError

__all__ = [
    "SatResult",
    "SatSolver",
    "SatStats",
    "TheoryListener",
    "TheoryTimeout",
    "DEFAULT_REDUCE_BASE",
    "DEFAULT_REDUCE_GROWTH",
    "DEFAULT_CLAUSE_DECAY",
    "DEFAULT_THEORY_BUMP",
]

#: Default learned-clause budget before the first :meth:`SatSolver.reduce_db`.
DEFAULT_REDUCE_BASE = 600
#: Default geometric growth factor of the learned-clause budget.
DEFAULT_REDUCE_GROWTH = 1.5
#: Default clause-activity decay (mirrors the variable-activity decay).
DEFAULT_CLAUSE_DECAY = 0.999
#: Default extra activity factor for variables named by theory feedback.
DEFAULT_THEORY_BUMP = 2.0

# Arena record header flags (low nibble; the size sits above them).
_FLAG_LEARNED = 1
_FLAG_PINNED = 2
_FLAG_DELETED = 4   # marked victim during a reduce_db sweep
_FLAG_REASON = 8    # materialised theory explanation: live only while locked
_SIZE_SHIFT = 4

#: ``_reason`` sentinel for a theory-propagated literal whose explanation
#: has not been materialised yet.
_THEORY_REASON = -1


class SatResult(Enum):
    """Outcome of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatStats:
    """Counters describing the work a :class:`SatSolver` performed."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    theory_propagations: int = 0
    theory_conflicts: int = 0
    theory_partial_conflicts: int = 0
    reduce_db_rounds: int = 0
    clauses_deleted: int = 0
    max_live_learned: int = 0
    compactions: int = 0
    arena_bytes: int = 0
    kernel_faults: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "restarts": self.restarts,
            "max_decision_level": self.max_decision_level,
            "theory_propagations": self.theory_propagations,
            "theory_conflicts": self.theory_conflicts,
            "theory_partial_conflicts": self.theory_partial_conflicts,
            "reduce_db_rounds": self.reduce_db_rounds,
            "clauses_deleted": self.clauses_deleted,
            "max_live_learned": self.max_live_learned,
            "compactions": self.compactions,
            "arena_bytes": self.arena_bytes,
            "kernel_faults": self.kernel_faults,
        }


class TheoryTimeout(Exception):
    """Raised by a theory whose own work ran past the solve deadline.

    :meth:`SatSolver.solve` catches it from any listener callback, unwinds
    the trail (and with it the theory) to level 0, and answers
    :data:`SatResult.UNKNOWN`, exactly as when it sees the deadline itself.
    """


class TheoryListener:
    """Callback interface through which a theory rides the SAT search.

    The solver streams every trail literal to :meth:`on_assert` — decisions
    and Boolean propagations alike — in trail order.  The listener may:

    * **veto** the partial assignment by returning a conflict: a list of
      previously streamed literals (including the one just asserted) whose
      conjunction is theory-inconsistent.  The solver turns it into a
      conflict clause and resolves it with normal first-UIP analysis, so
      theory conflicts are learned exactly like Boolean ones;
    * **propagate**: :meth:`propagations` returns theory-implied literals.
      They are enqueued with a *lazy* reason — :meth:`explain` is only
      called if conflict analysis actually needs the antecedents;
    * **track the trail**: :meth:`on_backjump` announces that only the
      first ``kept`` streamed literals survive, :meth:`on_restart` that the
      search restarted (after the corresponding backjump to level 0);
    * **finish**: :meth:`on_final_check` runs once a full assignment is
      reached, for theories that only do a bounded check per assertion
      (e.g. rational-only LIA filtering) and must complete it before the
      solver may answer SAT.

    All methods are optional; the defaults make an attached listener a
    no-op.  Explanations returned by :meth:`on_assert` / :meth:`explain`
    must only mention literals streamed *before* the literal they explain —
    the solver relies on trail order during conflict analysis.
    """

    def on_assert(self, lit: int) -> Optional[Sequence[int]]:
        """Literal ``lit`` was appended to the trail; return a conflict or None."""
        return None

    def propagations(self) -> Sequence[int]:
        """Theory-implied literals to enqueue (may include already-true ones)."""
        return ()

    def explain(self, lit: int) -> Sequence[int]:
        """Streamed literals whose conjunction implies propagated ``lit``."""
        raise SolverError(f"theory cannot explain literal {lit}")

    def on_backjump(self, kept: int) -> None:
        """Only the first ``kept`` literals streamed via on_assert survive."""

    def on_restart(self) -> None:
        """The search restarted (state was already retracted via on_backjump)."""

    def on_final_check(self) -> Optional[Sequence[int]]:
        """Full assignment reached; return a final conflict or None."""
        return None


def _dedupe(lits: Iterable[int]) -> List[int]:
    seen = set()
    out: List[int] = []
    for lit in lits:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


def luby(i: int) -> int:
    """The ``i``-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    if i < 1:
        raise SolverError("luby is defined for i >= 1")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class SatSolver:
    """CDCL SAT solver with assumptions, on an int32 clause arena.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve() is SatResult.SAT
        assert solver.value(b) is True

    Clause identity is an integer *cref* (arena offset).  The inspection
    helpers (:meth:`problem_refs`, :meth:`learned_refs`,
    :meth:`clause_lits`, :meth:`clause_info`, :meth:`watch_entries`,
    :meth:`reason_ref`) expose the flat structures to tests and tools
    without leaking the raw arena.
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
        use_kernel: Optional[bool] = None,
    ) -> None:
        if reduce_base < 1:
            raise SolverError(f"reduce_base must be >= 1, got {reduce_base}")
        if reduce_growth < 1.0:
            raise SolverError(f"reduce_growth must be >= 1, got {reduce_growth}")
        self._num_vars = 0
        # Clause arena: word 0 is a sentinel so cref 0 can mean "no reason".
        self._arena = array("i", [0])
        self._clause_refs: List[int] = []   # problem clause crefs
        self._learned_refs: List[int] = []  # learned clause crefs (reducible)
        self._cla_activity: List[float] = []  # activity slots (learned only)
        # Watch lists: watches[2v] for literal v, watches[2v+1] for -v.
        # Each is a flat [ref, blocker, ref, blocker, ...] pair list; a
        # negative ref is an inlined binary clause (|ref| is its cref).
        # With the native kernel loaded, the lists live in C instead
        # (self._cwt) and this table stays None.
        self._watches: Optional[List[List[int]]] = None
        # Assignment state; index 0 unused.  int32 columns so the native
        # kernel indexes the same memory the Python loop does.
        self._assign = array("i", [0])   # 0 unassigned, 1 true, -1 false
        self._level = array("i", [0])
        # Reasons: 0 none, cref > 0, or _THEORY_REASON for a lazy theory
        # explanation materialised by _materialize_reason on demand.
        self._reason = array("i", [0])
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # The assumption each bottom decision level was opened for: level
        # i+1 belongs to _assumed[i]; levels above len(_assumed) are search.
        self._assumed: List[int] = []
        self._queue_head = 0
        # Decision heuristic.
        self._activity: List[float] = [0.0]
        self._phase = array("i", [0])  # saved polarity per var, 0/1
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
        self.stats.arena_bytes = self._arena.itemsize
        self._conflict_limit: Optional[int] = None
        # Online theory integration.
        self._theory: Optional[TheoryListener] = None
        self._theory_head = 0  # trail literals already streamed to the theory
        # Native propagation kernel (optional).  When available, the watch
        # lists live in C (self._cwt) and _propagate dispatches to the
        # compiled loop; otherwise self._watches holds them as Python lists
        # and the pure-Python reference loop runs.  Both paths are
        # bit-identical in every observable.
        self._cwt = None
        self._kernel = satkernel.load() if use_kernel in (None, True) else None
        if use_kernel and self._kernel is None:
            raise SolverError(
                f"native SAT kernel unavailable: {satkernel.unavailable_reason()}"
            )
        if self._kernel is not None:
            self._cwt = self._kernel.sk_wt_new(2)
            self._ctx = satkernel.PropCtx()
            self._qbuf = array("i", [0] * 16)
        else:
            self._watches = [[], []]

    def set_theory(self, listener: Optional[TheoryListener]) -> None:
        """Attach (or detach) the online theory listener.

        Must be done before solving; literals already on the trail are
        streamed at the next ``solve`` call.
        """
        self._theory = listener
        self._theory_head = 0

    @property
    def kernel_active(self) -> bool:
        """Whether the compiled propagation kernel backs this solver."""
        return self._cwt is not None

    def __del__(self) -> None:
        cwt = getattr(self, "_cwt", None)
        if cwt is not None:
            try:
                self._kernel.sk_wt_free(cwt)
            except Exception:  # interpreter shutdown: library may be gone
                pass
            self._cwt = None

    # ------------------------------------------------------------------ setup

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assign.append(self._UNASSIGNED)
        self._level.append(0)
        self._reason.append(0)
        self._activity.append(0.0)
        self._phase.append(0)
        # Watch slots are allocated here, once per variable, so clause
        # loading never touches a dict (the old core paid a
        # _watches.setdefault per literal per add_clause).
        if self._cwt is not None:
            self._kernel.sk_wt_ensure(self._cwt, 2 * self._num_vars + 2)
        else:
            self._watches.append([])
            self._watches.append([])
        var = self._num_vars
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
        return len(self._clause_refs) + len(self._learned_refs)

    @property
    def num_learned(self) -> int:
        """Live learned clauses (the population :meth:`reduce_db` bounds)."""
        return len(self._learned_refs)

    # ------------------------------------------------------------------ arena

    def _alloc(
        self,
        lits: Sequence[int],
        learned: bool = False,
        pinned: bool = False,
        reason_record: bool = False,
    ) -> int:
        """Append a clause record to the arena; returns its cref."""
        arena = self._arena
        ref = len(arena)
        flags = 0
        if learned:
            flags |= _FLAG_LEARNED
            slot = len(self._cla_activity)
            self._cla_activity.append(0.0)
        else:
            slot = -1
        if pinned:
            flags |= _FLAG_PINNED
        if reason_record:
            flags |= _FLAG_REASON
        arena.append((len(lits) << _SIZE_SHIFT) | flags)
        arena.append(len(lits))  # lbd defaults to the clause size
        arena.append(slot)
        arena.extend(lits)
        self.stats.arena_bytes = len(arena) * arena.itemsize
        return ref

    def _attach(self, ref: int) -> None:
        """Watch a clause on its first two literals.

        Binary clauses are inlined: the watch entries carry ``-ref`` and
        the blocker *is* the other literal, so propagation never reads the
        record.
        """
        arena = self._arena
        l0 = arena[ref + 3]
        l1 = arena[ref + 4]
        wref = -ref if (arena[ref] >> _SIZE_SHIFT) == 2 else ref
        if self._cwt is not None:
            push = self._kernel.sk_wt_push
            push(self._cwt, l0 + l0 if l0 > 0 else 1 - l0 - l0, wref, l1)
            push(self._cwt, l1 + l1 if l1 > 0 else 1 - l1 - l1, wref, l0)
            return
        wl = self._watches[l0 + l0 if l0 > 0 else 1 - l0 - l0]
        wl.append(wref)
        wl.append(l1)
        wl = self._watches[l1 + l1 if l1 > 0 else 1 - l1 - l1]
        wl.append(wref)
        wl.append(l0)

    # ------------------------------------------------------------- inspection

    def problem_refs(self) -> Tuple[int, ...]:
        """Crefs of the live problem clauses, in load order."""
        return tuple(self._clause_refs)

    def learned_refs(self) -> Tuple[int, ...]:
        """Crefs of the live learned clauses, in learn order."""
        return tuple(self._learned_refs)

    def clause_lits(self, ref: int) -> List[int]:
        """The literals of clause ``ref`` (current watch order)."""
        arena = self._arena
        base = ref + 3
        return arena[base : base + (arena[ref] >> _SIZE_SHIFT)].tolist()

    def clause_info(self, ref: int) -> Dict[str, object]:
        """Record metadata for clause ``ref`` (size, lbd, flags, activity)."""
        header = self._arena[ref]
        slot = self._arena[ref + 2]
        return {
            "size": header >> _SIZE_SHIFT,
            "lbd": self._arena[ref + 1],
            "learned": bool(header & _FLAG_LEARNED),
            "pinned": bool(header & _FLAG_PINNED),
            "reason_record": bool(header & _FLAG_REASON),
            "activity": self._cla_activity[slot] if slot >= 0 else 0.0,
        }

    def watch_entries(self, lit: int) -> List[Tuple[int, int]]:
        """``(ref, blocker)`` pairs examined when ``lit`` becomes false.

        A negative ref is an inlined binary clause whose cref is ``-ref``.
        """
        index = lit + lit if lit > 0 else 1 - lit - lit
        if self._cwt is not None:
            length = self._kernel.sk_wt_len(self._cwt, index)
            buf = array("i", bytes(4 * length))
            if length:
                self._kernel.sk_wt_copy(self._cwt, index, buf.buffer_info()[0])
            wl: Sequence[int] = buf
        else:
            wl = self._watches[index]
        return [(wl[i], wl[i + 1]) for i in range(0, len(wl), 2)]

    def reason_ref(self, var: int) -> int:
        """The reason cref of ``var`` (0: decision/none, -1: lazy theory)."""
        return self._reason[var]

    @property
    def arena_words(self) -> int:
        """Current arena length in int32 words (including dead records)."""
        return len(self._arena)

    def arena_live_words(self) -> int:
        """Words owned by live records (problem + learned + locked reasons)."""
        live = 0
        arena = self._arena
        for ref in self._iter_live_refs():
            live += 3 + (arena[ref] >> _SIZE_SHIFT)
        return live

    def _iter_live_refs(self) -> Iterable[int]:
        locked = {r for r in self._reason if r > 0}
        seen = set(self._clause_refs)
        seen.update(self._learned_refs)
        seen.update(locked)
        return sorted(seen)

    # ------------------------------------------------------------------ loading

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` if the formula became trivially unsat.

        Clauses may be added at any time, including between ``solve`` calls
        while the trail of the last answer is still in place.  The trail is
        kept: the clause watches its two best literals (true or unassigned
        first, then false ones by highest level), and only a clause that is
        falsified or unit under the trail backjumps, to its *assertion
        level* (the second-highest literal level), where the implied
        literal is enqueued with the clause as its reason.  A falsified
        clause whose top level holds two or more literals backjumps to the
        level below instead, leaving it with two unassigned watches.  A
        unit clause always goes to level 0.
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
        assign = self._assign
        level = self._level
        for lit in unique:
            val = assign[lit] if lit > 0 else -assign[-lit]
            if val > 0 and level[abs(lit)] == 0:
                return True
            if val < 0 and level[abs(lit)] == 0:
                continue
            filtered.append(lit)

        if not filtered:
            self._ok = False
            return False
        if len(filtered) == 1:
            self._backtrack(0)
            if not self._enqueue(filtered[0], 0):
                self._ok = False
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            return True

        if self._trail_lim:
            # Non-false literals first, then false ones by descending level.
            filtered.sort(
                key=lambda lit: -level[abs(lit)]
                if (assign[lit] if lit > 0 else -assign[-lit]) < 0
                else -(1 << 30)
            )
        ref = self._alloc(filtered)
        self._attach(ref)
        self._clause_refs.append(ref)
        if self._trail_lim:
            l0, l1 = filtered[0], filtered[1]
            if (assign[l1] if l1 > 0 else -assign[-l1]) < 0:
                v0 = assign[l0] if l0 > 0 else -assign[-l0]
                if v0 < 0 and level[abs(l0)] == level[abs(l1)]:
                    self._backtrack(level[abs(l0)] - 1)
                elif v0 <= 0:
                    self._backtrack(level[abs(l1)])
                    self._enqueue(l0, ref)
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    # ------------------------------------------------------------------ values

    def _lit_value(self, lit: int) -> Optional[bool]:
        val = self._assign[abs(lit)]
        if val == 0:
            return None
        return (val > 0) == (lit > 0)

    def value(self, var: int) -> Optional[bool]:
        """The value of a variable in the last model (None if unassigned)."""
        if var <= 0 or var > self._num_vars:
            raise SolverError(f"unknown variable {var}")
        val = self._assign[var]
        return None if val == 0 else val > 0

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last successful ``solve``."""
        assign = self._assign
        return {v: assign[v] > 0 for v in range(1, self._num_vars + 1)
                if assign[v] != 0}

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

        The trail of the previous call is reused, not rebuilt: decision
        level *i+1* is kept while it was opened for ``assumptions[i]``, and
        when the whole assumption prefix matches, the search levels above
        it are kept too.  Model enumeration therefore pays only for the
        part of the trail a blocking clause actually invalidates.
        """
        if not self._ok:
            return SatResult.UNSAT
        self._conflict_limit = conflict_limit
        assumed = self._assumed
        keep = 0
        while (
            keep < len(assumed)
            and keep < len(assumptions)
            and assumed[keep] == assumptions[keep]
        ):
            keep += 1
        if keep < len(assumptions):
            self._backtrack(keep)
        else:
            del assumed[keep:]
        if not self._trail_lim and self._propagate() is not None:
            self._ok = False
            return SatResult.UNSAT
        try:
            return self._search(assumptions, theory_conflict_limit, deadline)
        except TheoryTimeout:
            # A theory passed the deadline inside its own loop: unwind so
            # the solver (and the theory with it) stays usable.
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
        level = self._level
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
                if len(self._trail_lim) < len(assumptions):
                    lit = assumptions[len(self._trail_lim)]
                    val = self._lit_value(lit)
                    if val is False:
                        return SatResult.UNSAT
                    # An already-true assumption opens an empty decision
                    # level, so the assumption indexing stays aligned.
                    self._new_decision_level()
                    self._assumed.append(lit)
                    if val is None:
                        self._enqueue(lit, 0)
                    continue

                lit = self._pick_branch_literal()
                if lit is not None:
                    self.stats.decisions += 1
                    self._new_decision_level()
                    self._enqueue(lit, 0)
                    continue
                conflict = self._theory_final()
                if conflict is None:
                    return SatResult.SAT

            # Conflict handling (Boolean and theory conflicts alike).
            self.stats.conflicts += 1
            conflicts_total += 1
            from_theory = self._conflict_from_theory
            self._conflict_from_theory = False
            conflict_lits, conflict_ref = conflict
            conflict_level = 0
            for lit in conflict_lits:
                lit_level = level[lit if lit > 0 else -lit]
                if lit_level > conflict_level:
                    conflict_level = lit_level
            if not conflict_lits or conflict_level == 0:
                self._ok = False
                return SatResult.UNSAT
            if conflict_level < len(self._trail_lim):
                # Theory conflicts may surface only after the offending
                # literals' level is already left behind (e.g. a final-check
                # conflict over early assignments): re-anchor analysis at the
                # deepest level actually mentioned by the clause.
                self._backtrack(conflict_level)
            learned, backtrack_level, lbd = self._analyze(conflict_lits, conflict_ref)
            self._backtrack(backtrack_level)
            self._learn(learned, lbd, theory_lemma=from_theory)
            self._decay_activities()
            if (
                self._reduce_enabled
                and len(self._learned_refs) >= self._reduce_limit
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

    def _theory_sync(self) -> Optional[Tuple[List[int], int]]:
        """Stream new trail literals to the theory and absorb its feedback.

        Alternates between feeding the unstreamed trail suffix, enqueuing
        theory propagations, and Boolean propagation until a fixpoint (or a
        conflict).  Called whenever unit propagation reaches a fixpoint.
        """
        theory = self._theory
        if theory is None:
            return None
        trail = self._trail
        on_assert = theory.on_assert
        while True:
            head = self._theory_head
            while head < len(trail):
                lit = trail[head]
                head += 1
                self._theory_head = head
                conflict = on_assert(lit)
                if conflict is not None:
                    return self._count_theory_conflict(
                        _dedupe(-lit for lit in conflict)
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
                    lits = _dedupe([lit] + [-e for e in explanation])
                    return self._count_theory_conflict(lits)
                self.stats.theory_propagations += 1
                self._bump_var_theory(abs(lit))
                self._enqueue(lit, _THEORY_REASON)
                enqueued = True
            if not enqueued:
                return None
            # A conflict here comes from ordinary clause propagation (merely
            # triggered by a theory-implied literal): it is a Boolean
            # conflict and must not be counted against the theory budget.
            conflict = self._propagate()
            if conflict is not None:
                return conflict

    def _theory_final(self) -> Optional[Tuple[List[int], int]]:
        """Give the theory its completeness check on the full assignment."""
        if self._theory is None:
            return None
        conflict = self._theory_final_check()
        if conflict is None:
            return None
        return self._count_theory_conflict(_dedupe(-lit for lit in conflict))

    def _theory_final_check(self) -> Optional[Sequence[int]]:
        assert self._theory is not None
        return self._theory.on_final_check()

    def _count_theory_conflict(self, lits: List[int]) -> Tuple[List[int], int]:
        self.stats.theory_conflicts += 1
        self._conflict_from_theory = True
        if len(self._trail) < self._num_vars:
            self.stats.theory_partial_conflicts += 1
        # Theory-aware branching: the atoms a theory explanation names are
        # exactly the "almost conflicting" ones — bias decisions toward them.
        for lit in lits:
            self._bump_var_theory(abs(lit))
        return lits, 0

    def _materialize_reason(self, var: int) -> int:
        """Turn ``var``'s lazy theory reason into an arena record.

        The record carries the ``_FLAG_REASON`` flag: it is never watched
        and never enters the learned index — compaction keeps it alive
        exactly while it is reason-locked.
        """
        assert self._theory is not None
        lit = var if self._assign[var] > 0 else -var
        explanation = [e for e in self._theory.explain(lit) if e != lit]
        ref = self._alloc(
            _dedupe([lit] + [-e for e in explanation]), reason_record=True
        )
        self._reason[var] = ref
        return ref

    # ------------------------------------------------------------------ internals

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        if len(self._trail_lim) > self.stats.max_decision_level:
            self.stats.max_decision_level = len(self._trail_lim)

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self._lit_value(lit)
        if val is not None:
            return val
        var = lit if lit > 0 else -lit
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[Tuple[List[int], int]]:
        """Unit propagation; returns ``(conflict_lits, conflict_ref)`` or None.

        Dispatches to the compiled kernel when it is loaded, else to the
        pure-Python reference loop.  The two are maintained in lockstep and
        are bit-identical in every observable (assignments, trail order,
        watch-list evolution, conflict choice) — only the wall clock
        differs.
        """
        if self._cwt is not None:
            if (
                faults.ACTIVE is not None
                and faults.draw("kernel.propagate") is not None
            ):
                # Injected before the C call so both the arena and the C
                # watch table are pristine when we copy them back out.
                self._degrade_kernel()
                return self._propagate_py()
            try:
                return self._propagate_c()
            except OSError:
                # A genuinely faulting kernel call: fall back for good.
                self._degrade_kernel()
                return self._propagate_py()
        return self._propagate_py()

    def _degrade_kernel(self) -> None:
        """Mid-flight kernel → pure-Python degradation.

        The C watch table is read back into Python lists (the two loops
        share every other piece of state — the arena and the flat columns
        are ``array('i')`` on both sides), the kernel handle is dropped,
        and every future :meth:`_propagate` runs the reference loop.  The
        search continues exactly where it was; only the wall clock changes.
        """
        watches: List[List[int]] = []
        for index in range(2 * self._num_vars + 2):
            length = self._kernel.sk_wt_len(self._cwt, index)
            buf = array("i", bytes(4 * length))
            if length:
                self._kernel.sk_wt_copy(self._cwt, index, buf.buffer_info()[0])
            watches.append(buf.tolist())
        self._kernel.sk_wt_free(self._cwt)
        self._cwt = None
        self._kernel = None
        self._watches = watches
        self.stats.kernel_faults += 1

    def _propagate_c(self) -> Optional[Tuple[List[int], int]]:
        """Kernel propagation: marshal buffer pointers, run, unmarshal.

        The pending trail suffix is staged into a scratch int32 queue the C
        loop both consumes and extends; newly enqueued literals are copied
        back onto the Python trail afterwards.  Buffer addresses are
        re-read on every call because ``array`` storage moves as it grows.
        """
        trail = self._trail
        qhead = self._queue_head
        pending = len(trail) - qhead
        qbuf = self._qbuf
        need = self._num_vars + pending + 1
        if len(qbuf) < need:
            qbuf.extend([0] * (need - len(qbuf)))
        for offset in range(pending):
            qbuf[offset] = trail[qhead + offset]
        ctx = self._ctx
        ctx.arena = self._arena.buffer_info()[0]
        ctx.assign = self._assign.buffer_info()[0]
        ctx.level = self._level.buffer_info()[0]
        ctx.reason = self._reason.buffer_info()[0]
        ctx.phase = self._phase.buffer_info()[0]
        ctx.queue = qbuf.buffer_info()[0]
        ctx.queue_len = pending
        ctx.qhead = 0
        ctx.dl = len(self._trail_lim)
        entry = self._kernel.sk_propagate(self._cwt, ctypes.byref(ctx))
        self.stats.propagations += ctx.props
        if ctx.queue_len > pending:
            trail.extend(qbuf[pending : ctx.queue_len].tolist())
        self._queue_head = len(trail)
        if entry == 0:
            return None
        arena = self._arena
        false_lit = ctx.conflict_flit
        if entry < 0:
            # Inlined binary conflict: [other-literal, falsified-literal],
            # matching the Python loop's [blocker, false_lit] order.
            ref = -entry
            l0 = arena[ref + 3]
            other = arena[ref + 4] if l0 == false_lit else l0
            return [other, false_lit], ref
        base = entry + 3
        lits = arena[base : base + (arena[entry] >> _SIZE_SHIFT)].tolist()
        return lits, entry

    def _propagate_py(self) -> Optional[Tuple[List[int], int]]:
        """Pure-Python unit propagation (the kernel's reference semantics).

        This is the solver's innermost loop: everything is inlined — literal
        values come straight off the flat ``_assign`` column, watch lists
        are edited in place with a read/write cursor pair, binary clauses
        never touch the arena, and a fresh true blocker skips a clause with
        a single arena read.
        """
        trail = self._trail
        assign = self._assign
        level = self._level
        phase = self._phase
        reason = self._reason
        arena = self._arena
        watches = self._watches
        qhead = self._queue_head
        props = 0
        dl = len(self._trail_lim)
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            false_lit = -lit
            # watches[index of false_lit]: entries examined when it went false.
            wl = watches[lit + lit + 1] if lit > 0 else watches[-lit - lit]
            i = 0
            n = len(wl)
            conflict_lits: Optional[List[int]] = None
            conflict_ref = 0
            # Write cursor for in-place compaction.  Entries only leave the
            # list when a watch moves, which is rare next to keeps, so the
            # walk starts in "clean" mode (j < 0: every entry stays where it
            # is, nothing is copied) and drops to copy mode at the first
            # dropped entry.
            j = -1
            while i < n:
                ref = wl[i]
                blocker = wl[i + 1]
                i += 2
                bv = assign[blocker] if blocker > 0 else -assign[-blocker]
                if ref < 0:
                    # Inlined binary clause: the blocker IS the other literal.
                    if j >= 0:
                        wl[j] = ref
                        wl[j + 1] = blocker
                        j += 2
                    if bv > 0:
                        continue
                    if bv == 0:
                        var = blocker if blocker > 0 else -blocker
                        assign[var] = 1 if blocker > 0 else -1
                        level[var] = dl
                        reason[var] = -ref
                        phase[var] = blocker > 0
                        trail.append(blocker)
                        continue
                    conflict_lits = [blocker, false_lit]
                    conflict_ref = -ref
                    break
                base = ref + 3
                if bv > 0 and arena[base] == blocker:
                    # Fresh blocker: the clause's other watch is true — skip
                    # without reading the rest of the record.  (A stale true
                    # blocker falls through so watch-list evolution stays
                    # identical to the reference core.)
                    if j >= 0:
                        wl[j] = ref
                        wl[j + 1] = blocker
                        j += 2
                    continue
                l0 = arena[base]
                if l0 == false_lit:
                    l0 = arena[base + 1]
                    arena[base] = l0
                    arena[base + 1] = false_lit
                fv = assign[l0] if l0 > 0 else -assign[-l0]
                if fv > 0:
                    if j >= 0:
                        wl[j] = ref
                        wl[j + 1] = l0
                        j += 2
                    else:
                        wl[i - 1] = l0  # refresh the blocker in place
                    continue
                # Look for a replacement watch.
                end = base + (arena[ref] >> _SIZE_SHIFT)
                k = base + 2
                while k < end:
                    lk = arena[k]
                    if (assign[lk] if lk > 0 else -assign[-lk]) >= 0:
                        break
                    k += 1
                if k < end:
                    arena[base + 1] = lk
                    arena[k] = false_lit
                    nwl = watches[lk + lk] if lk > 0 else watches[1 - lk - lk]
                    nwl.append(ref)
                    nwl.append(l0)
                    if j < 0:
                        j = i - 2  # first dropped entry: switch to copy mode
                    continue
                # Clause is unit or conflicting.
                if j >= 0:
                    wl[j] = ref
                    wl[j + 1] = l0
                    j += 2
                else:
                    wl[i - 1] = l0
                if fv == 0:
                    var = l0 if l0 > 0 else -l0
                    assign[var] = 1 if l0 > 0 else -1
                    level[var] = dl
                    reason[var] = ref
                    phase[var] = l0 > 0
                    trail.append(l0)
                    continue
                conflict_lits = arena[base:end].tolist()
                conflict_ref = ref
                break
            if conflict_lits is not None:
                # Conflict: keep the remaining clauses watched and stop.
                if j >= 0:
                    while i < n:
                        wl[j] = wl[i]
                        wl[j + 1] = wl[i + 1]
                        i += 2
                        j += 2
                    del wl[j:]
                self._queue_head = len(trail)
                self.stats.propagations += props
                return conflict_lits, conflict_ref
            if j >= 0:
                del wl[j:]
        self._queue_head = qhead
        self.stats.propagations += props
        return None

    def _analyze(
        self, conflict_lits: Sequence[int], conflict_ref: int
    ) -> Tuple[List[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first), the level to
        backtrack to, and the clause's literal-block distance (computed
        here, while every literal is still assigned its conflict level).
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self._num_vars + 1)
        level = self._level
        trail = self._trail
        arena = self._arena
        reason = self._reason
        counter = 0
        lit = 0  # 0 is never a literal: first round processes every lit
        reason_lits: Sequence[int] = conflict_lits
        ref = conflict_ref
        index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            if ref > 0 and arena[ref] & _FLAG_LEARNED:
                self._bump_clause_slot(arena[ref + 2])
            for p in reason_lits:
                if p == lit:
                    continue
                var = p if p > 0 else -p
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = 1
                self._bump_var(var)
                if level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(p)
            # Find the next literal on the trail to resolve on.
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            var = abs(lit)
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
            ref = reason[var]
            if ref == _THEORY_REASON:
                ref = self._materialize_reason(var)
            base = ref + 3
            reason_lits = arena[base : base + (arena[ref] >> _SIZE_SHIFT)]
        learned[0] = -lit

        # Compute the backtrack level (second highest level in the clause).
        if len(learned) == 1:
            backtrack_level = 0
        else:
            max_i = 1
            for i in range(2, len(learned)):
                if level[abs(learned[i])] > level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backtrack_level = level[abs(learned[1])]
        lbd = len({level[abs(lit)] for lit in learned})
        return learned, backtrack_level, lbd

    def _learn(
        self, learned: List[int], lbd: Optional[int] = None,
        theory_lemma: bool = False,
    ) -> None:
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            self._enqueue(learned[0], 0)
            return
        ref = self._alloc(
            learned,
            learned=True,
            pinned=theory_lemma and self._pin_theory_lemmas,
        )
        if lbd is not None:
            self._arena[ref + 1] = lbd
        self._cla_activity[self._arena[ref + 2]] = self._cla_inc
        self._attach(ref)
        self._learned_refs.append(ref)
        if len(self._learned_refs) > self.stats.max_live_learned:
            self.stats.max_live_learned = len(self._learned_refs)
        self._enqueue(learned[0], ref)

    def reduce_db(self) -> int:
        """Drop the coldest half of the deletable learned clauses.

        A learned clause is *not* deletable when it is binary (cheap to keep,
        expensive to relearn), a glue clause (LBD <= 3: it connects few
        decision levels and re-deriving it is what drives the conflict-count
        blow-up naive reduction suffers), pinned (a theory lemma under
        ``pin_theory_lemmas``), or reason-locked (currently the reason of a
        trail literal — deleting it would corrupt conflict analysis).

        Deletion is an **arena compaction**: victims are flagged, the
        survivors (problem clauses, remaining learned clauses, and
        reason-locked materialised theory explanations) are copied into a
        fresh arena, and the watch lists, reason refs and clause indexes
        are remapped in one sweep.  Returns the number of clauses deleted.
        """
        arena = self._arena
        reason = self._reason
        locked = set()
        for lit in self._trail:
            r = reason[lit if lit > 0 else -lit]
            if r > 0:
                locked.add(r)
        activity = self._cla_activity
        deletable = [
            ref
            for ref in self._learned_refs
            if (arena[ref] >> _SIZE_SHIFT) > 2
            and arena[ref + 1] > 3
            and not arena[ref] & _FLAG_PINNED
            and ref not in locked
        ]
        victims = sorted(deletable, key=lambda r: activity[arena[r + 2]])
        victims = victims[: len(victims) // 2]
        if not victims:
            return 0
        for ref in victims:
            arena[ref] |= _FLAG_DELETED
        self._compact(locked)
        self.stats.reduce_db_rounds += 1
        self.stats.clauses_deleted += len(victims)
        return len(victims)

    def remove_satisfied(self) -> int:
        """Delete the problem and learned clauses satisfied at level 0.

        A clause with a literal true at level 0 can never propagate or
        conflict again, so it is pure weight — typically the clauses of a
        retired scope, once the scope's selector is negated.  Victims are
        dropped by the same arena compaction :meth:`reduce_db` uses.  A
        victim can only be the reason of a level-0 literal, and conflict
        analysis never reads those reasons, so they are cleared.  Returns
        the number of clauses deleted.
        """
        arena = self._arena
        assign = self._assign
        level = self._level
        victims = 0
        for ref in self._clause_refs + self._learned_refs:
            base = ref + 3
            for k in range(base, base + (arena[ref] >> _SIZE_SHIFT)):
                lit = arena[k]
                val = assign[lit] if lit > 0 else -assign[-lit]
                if val > 0 and level[abs(lit)] == 0:
                    arena[ref] |= _FLAG_DELETED
                    victims += 1
                    break
        if not victims:
            return 0
        reason = self._reason
        locked = set()
        for lit in self._trail:
            var = lit if lit > 0 else -lit
            r = reason[var]
            if r > 0:
                if level[var] == 0 and arena[r] & _FLAG_DELETED:
                    reason[var] = 0
                else:
                    locked.add(r)
        self._compact(locked)
        return victims

    def _compact(self, locked: set) -> None:
        """Copy live records into a fresh arena; remap every cref in one sweep.

        Live records are the problem and learned clauses not flagged
        ``_FLAG_DELETED``, and materialised theory reasons that are still
        reason-locked.  Watch entries of flagged victims are dropped while
        the lists are rewritten, which is what unlinks a victim from the
        propagation structures.
        """
        arena = self._arena
        activity = self._cla_activity
        new_arena = array("i", [0])
        new_activity: List[float] = []
        remap: Dict[int, int] = {}
        ref = 1
        end = len(arena)
        while ref < end:
            header = arena[ref]
            size = header >> _SIZE_SHIFT
            record_len = 3 + size
            keep = not header & _FLAG_DELETED
            if header & _FLAG_REASON:
                # Materialised theory explanations live exactly as long as
                # they are reason-locked; unlocked ones are garbage.
                keep = ref in locked
            if keep:
                new_ref = len(new_arena)
                remap[ref] = new_ref
                new_arena.extend(arena[ref : ref + record_len])
                if header & _FLAG_LEARNED:
                    new_slot = len(new_activity)
                    new_activity.append(activity[arena[ref + 2]])
                    new_arena[new_ref + 2] = new_slot
            ref += record_len
        # Remap the watch lists, dropping entries that point at victims.
        if self._cwt is not None:
            table = array("i", [-1]) * len(arena)
            for old_ref, new_ref in remap.items():
                table[old_ref] = new_ref
            self._kernel.sk_wt_remap(
                self._cwt, table.buffer_info()[0], len(table)
            )
        else:
            for wl in self._watches:
                i = 0
                j = 0
                n = len(wl)
                while i < n:
                    entry = wl[i]
                    cref = -entry if entry < 0 else entry
                    new_ref = remap.get(cref)
                    if new_ref is not None:
                        wl[j] = -new_ref if entry < 0 else new_ref
                        wl[j + 1] = wl[i + 1]
                        j += 2
                    i += 2
                del wl[j:]
        # Remap reasons (every surviving reason is in the remap by
        # construction: reason-locked clauses are never victims).
        reason = self._reason
        for var in range(1, self._num_vars + 1):
            if reason[var] > 0:
                reason[var] = remap[reason[var]]
        self._clause_refs = [remap[r] for r in self._clause_refs if r in remap]
        self._learned_refs = [
            remap[r] for r in self._learned_refs if r in remap
        ]
        self._arena = new_arena
        self._cla_activity = new_activity
        self.stats.compactions += 1
        self.stats.arena_bytes = len(new_arena) * new_arena.itemsize

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        reason = self._reason
        activity = self._activity
        heap = self._heap
        trail = self._trail
        for index in range(len(trail) - 1, limit - 1, -1):
            lit = trail[index]
            var = lit if lit > 0 else -lit
            assign[var] = 0
            reason[var] = 0
            heapq.heappush(heap, (-activity[var], var))
        del trail[limit:]
        del self._trail_lim[level:]
        del self._assumed[level:]
        self._queue_head = len(trail)
        if self._theory is not None and self._theory_head > len(trail):
            self._theory_head = len(trail)
            self._theory.on_backjump(self._theory_head)

    def _pick_branch_literal(self) -> Optional[int]:
        assign = self._assign
        activity = self._activity
        phase = self._phase
        heap = self._heap
        while heap:
            neg_activity, var = heapq.heappop(heap)
            if assign[var] != 0:
                continue
            if -neg_activity != activity[var]:
                # Stale duplicate: the variable was bumped after this entry
                # was pushed, so a fresher entry is (or was) in the heap.
                continue
            return var if phase[var] else -var
        # Fall back to a linear scan (the heap should never run dry — every
        # unassigned variable owns a current entry — but stay safe).
        for var in range(1, self._num_vars + 1):
            if assign[var] == 0:
                return var if phase[var] else -var
        return None

    def _bump_var(self, var: int) -> None:
        activity = self._activity[var] + self._var_inc
        self._activity[var] = activity
        if activity > 1e100:
            self._rescale_var_activities()
            activity = self._activity[var]
        heapq.heappush(self._heap, (-activity, var))

    def _bump_var_theory(self, var: int) -> None:
        """Extra activity for atoms named by theory conflicts/propagations."""
        if self._theory_bump <= 0.0 or var > self._num_vars:
            return
        activity = self._activity[var] + self._var_inc * self._theory_bump
        self._activity[var] = activity
        if activity > 1e100:
            self._rescale_var_activities()
            activity = self._activity[var]
        heapq.heappush(self._heap, (-activity, var))

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
            if self._assign[v] == 0
        ]
        heapq.heapify(self._heap)

    def _bump_clause_slot(self, slot: int) -> None:
        activity = self._cla_activity
        activity[slot] += self._cla_inc
        if activity[slot] > 1e20:
            arena = self._arena
            for ref in self._learned_refs:
                activity[arena[ref + 2]] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._decay
        self._cla_inc /= self._clause_decay
