"""The DPLL(T) engines combining the CDCL SAT core with theory solvers.

Two integration styles are provided, selected by ``theory_mode``:

**online** (the default) — the theories ride the SAT search itself through
the :class:`~repro.smt.sat.TheoryListener` hook: every literal the SAT core
asserts (decision or propagation) is streamed into incremental theory
solvers (:class:`~repro.smt.theory.euf.IncrementalCongruenceClosure`,
:class:`~repro.smt.theory.idl.IncrementalDifferenceLogic`,
:class:`~repro.smt.theory.lia.IncrementalLinearInt`), which keep
trail-backed undo stacks and retract in lockstep with SAT backjumps.
Theory conflicts are caught on *partial* assignments — after a handful of
literals instead of after a complete propositional model — and their
localized explanations are learned with ordinary first-UIP analysis.
Theory-implied literals (EUF entailments) are propagated back into the
Boolean search with lazily materialised reason clauses.

**offline** — the classic *lemmas-on-demand* loop kept for differential
testing and as the reference semantics:

1. ask the SAT core for a complete propositional model,
2. translate the model's asserted atoms into theory constraints and check
   them with freshly built batch theory solvers,
3. if a theory objects, negate its explanation into a blocking clause and
   repeat.

Both modes terminate: online inherits CDCL termination (theory conflicts
are learned clauses over a finite atom vocabulary), offline removes at
least one propositional model per blocking clause.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.smt.cnf import TseitinConverter, tseitin
from repro.smt.linear import LinearLe, atom_to_constraints
from repro.smt.models import Model
from repro.smt.sat import (
    DEFAULT_REDUCE_BASE,
    DEFAULT_THEORY_BUMP,
    SatResult,
    SatSolver,
    TheoryListener,
)
from repro.smt.simplify import preprocess
from repro.smt.terms import Term, free_variables
from repro.smt.theory.euf import CongruenceClosure, IncrementalCongruenceClosure
from repro.smt.theory.idl import (
    DifferenceLogicSolver,
    IncrementalDifferenceLogic,
    edge_groups,
)
from repro.smt.theory.lia import IncrementalLinearInt, LinearIntSolver
from repro.utils.errors import SolverError

__all__ = [
    "CheckResult",
    "DpllTEngine",
    "IncrementalDpllTEngine",
    "SmtStats",
    "TheoryCore",
    "THEORY_MODES",
]

#: Valid values of the ``theory_mode`` knob.
THEORY_MODES = ("online", "offline")


def _validate_theory_mode(mode: str) -> str:
    if mode not in THEORY_MODES:
        raise SolverError(
            f"unknown theory_mode {mode!r}; pick one of {THEORY_MODES}"
        )
    return mode


class CheckResult(Enum):
    """Outcome of an SMT ``check``."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SmtStats:
    """Statistics of one DPLL(T) run.

    ``iterations`` counts theory-interaction rounds: offline, the outer
    model-then-check loop; online, ``1 +`` the number of theory conflicts
    (each conflict plays the role one blocking-clause iteration used to).
    ``theory_partial_conflicts`` counts the theory conflicts raised on
    *partial* assignments — the online engine's whole point; offline it is
    always 0 because the theories only ever see complete models.
    ``explanations`` / ``explanation_literals`` measure the theory
    explanations produced (conflicts and lazy propagation reasons);
    ``as_dict`` derives the average explanation size from them.
    ``theory_asserts`` counts the trail literals streamed into the
    theories (:meth:`TheoryCore.on_assert` calls) — the work a check
    spends re-asserting the trail, which trail-prefix reuse keeps small
    across enumeration checks.
    ``theory_propagations`` counts literals the SAT core actually
    *enqueued*; the per-theory split (``theory_propagations_euf`` /
    ``theory_propagations_idl``) counts entailments the theories
    *emitted*, so the split may exceed the aggregate when an entailment
    arrives for a literal the Boolean search already assigned.
    """

    iterations: int = 0
    theory_conflicts: int = 0
    sat_clauses: int = 0
    sat_variables: int = 0
    atoms: int = 0
    arith_atoms: int = 0
    euf_atoms: int = 0
    sat_decisions: int = 0
    sat_conflicts: int = 0
    theory_asserts: int = 0
    theory_propagations: int = 0
    theory_propagations_euf: int = 0
    theory_propagations_idl: int = 0
    theory_partial_conflicts: int = 0
    explanations: int = 0
    explanation_literals: int = 0
    reduce_db_rounds: int = 0
    clauses_deleted: int = 0
    max_live_learned: int = 0
    #: Flat-core arena gauges: compaction sweeps performed and the arena
    #: footprint (bytes) after the last one.  Both 0 on the legacy core.
    compactions: int = 0
    arena_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        avg_explanation = (
            round(self.explanation_literals / self.explanations, 2)
            if self.explanations
            else 0
        )
        return {
            "iterations": self.iterations,
            "theory_conflicts": self.theory_conflicts,
            "sat_clauses": self.sat_clauses,
            "sat_variables": self.sat_variables,
            "atoms": self.atoms,
            "arith_atoms": self.arith_atoms,
            "euf_atoms": self.euf_atoms,
            "sat_decisions": self.sat_decisions,
            "sat_conflicts": self.sat_conflicts,
            "theory_asserts": self.theory_asserts,
            "theory_propagations": self.theory_propagations,
            "theory_propagations_euf": self.theory_propagations_euf,
            "theory_propagations_idl": self.theory_propagations_idl,
            "theory_partial_conflicts": self.theory_partial_conflicts,
            "avg_explanation_size": avg_explanation,
            "reduce_db_rounds": self.reduce_db_rounds,
            "clauses_deleted": self.clauses_deleted,
            "max_live_learned": self.max_live_learned,
            "compactions": self.compactions,
            "arena_bytes": self.arena_bytes,
        }


_ARITH_KINDS = ("le", "lt")


def _classify_atom(atom: Term) -> str:
    """Classify an atom as ``bool``, ``arith`` or ``euf``."""
    if atom.kind == "var":
        return "bool"
    if atom.kind in _ARITH_KINDS:
        return "arith"
    if atom.kind == "eq":
        lhs = atom.args[0]
        if lhs.sort.is_int:
            return "arith"
        if lhs.sort.is_bool:
            return "bool_eq"
        return "euf"
    if atom.kind == "app":
        if not atom.args:
            return "bool"
        return "euf_pred"
    raise SolverError(f"unclassifiable atom: {atom}")


def _reject_atom_kind(kind: str) -> None:
    if kind == "euf_pred":
        raise SolverError(
            "Boolean-valued uninterpreted predicates are not supported; "
            "model them as equalities with a distinguished constant"
        )
    if kind == "bool_eq":
        raise SolverError(
            "Boolean equality atoms should have been rewritten to iff "
            "by preprocessing"
        )


def _partition_atom(
    atom: Term,
    var: int,
    arith_atoms: Dict[Term, int],
    euf_atoms: Dict[Term, int],
) -> None:
    """Route ``atom`` into the arithmetic or EUF atom map (or reject it)."""
    kind = _classify_atom(atom)
    _reject_atom_kind(kind)
    if kind == "arith":
        arith_atoms[atom] = var
    elif kind == "euf":
        euf_atoms[atom] = var


def _theory_consistency(
    arith_atoms: Dict[Term, int],
    euf_atoms: Dict[Term, int],
    bool_model: Dict[int, bool],
    constraint_cache: Optional[Dict[Tuple[int, bool], Tuple[LinearLe, ...]]] = None,
) -> Tuple[Optional[List[int]], Dict[str, int], Dict[str, int]]:
    """Check a candidate propositional model against the theories (offline).

    Returns ``(conflict, arith_model, euf_model)``.  ``conflict`` is ``None``
    when the theories agree; otherwise it lists the SAT literals (as asserted
    by the candidate model) whose conjunction is theory-inconsistent.  When a
    theory fails to localise its inconsistency the full set of asserted
    literals of that theory is returned, which is always a valid (if coarse)
    explanation.

    ``constraint_cache`` memoises the pure atom-to-constraint translation
    keyed by ``(atom_var, polarity)``; across the many theory iterations of
    an enumeration workload this is the single hottest path.
    """
    arith_model: Dict[str, int] = {}
    euf_model: Dict[str, int] = {}

    # ---- arithmetic ----
    constraints: List[LinearLe] = []
    origin_lits: List[int] = []
    for atom, var in arith_atoms.items():
        value = bool_model.get(var)
        if value is None:
            continue
        if constraint_cache is None:
            translated: Tuple[LinearLe, ...] = tuple(atom_to_constraints(atom, value))
        else:
            key = (var, value)
            cached = constraint_cache.get(key)
            if cached is None:
                cached = tuple(atom_to_constraints(atom, value))
                constraint_cache[key] = cached
            translated = cached
        origin = var if value else -var
        for constraint in translated:
            constraints.append(constraint)
            origin_lits.append(origin)

    if constraints:
        if DifferenceLogicSolver.is_applicable(constraints):
            arith: object = DifferenceLogicSolver()
        else:
            arith = LinearIntSolver()
        arith.assert_all(constraints)  # type: ignore[attr-defined]
        outcome = arith.check()  # type: ignore[attr-defined]
        if not outcome.satisfiable:
            conflict = sorted({origin_lits[i] for i in outcome.conflict or []})
            return conflict or sorted(set(origin_lits)), arith_model, euf_model
        arith_model = outcome.model or {}

    # ---- EUF ----
    if euf_atoms:
        euf = CongruenceClosure()
        euf_origin: List[int] = []
        for atom, var in euf_atoms.items():
            value = bool_model.get(var)
            if value is None:
                continue
            lhs, rhs = atom.args
            if value:
                euf.assert_equal(lhs, rhs)
            else:
                euf.assert_distinct(lhs, rhs)
            euf_origin.append(var if value else -var)
        outcome = euf.check()
        if not outcome.satisfiable:
            conflict = sorted({euf_origin[i] for i in outcome.conflict or []})
            return conflict or sorted(set(euf_origin)), arith_model, euf_model
        euf_model = outcome.model or {}

    return None, arith_model, euf_model


def _assemble_model(
    atom_to_var: Dict[Term, int],
    bool_model: Dict[int, bool],
    variables: Dict[str, object],
    arith_model: Dict[str, int],
    euf_model: Dict[str, int],
) -> Model:
    """Combine theory models and the SAT assignment into a full model."""
    values: Dict[str, object] = {}
    # Theory values first.
    values.update(arith_model)
    values.update(euf_model)
    # Boolean variables straight from the SAT model.
    for atom, var in atom_to_var.items():
        if atom.kind == "var" and atom.sort.is_bool:
            values[atom.name] = bool_model.get(var, False)
    # Defaults for anything the formula mentions but nothing constrained.
    for name, sort in variables.items():
        if name not in values:
            values[name] = False if getattr(sort, "is_bool", False) else 0
    return Model(values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Online theory core (the TheoryListener implementation)
# ---------------------------------------------------------------------------


class TheoryCore(TheoryListener):
    """Routes the SAT trail into the incremental theory solvers.

    One core owns one :class:`IncrementalCongruenceClosure` and one
    arithmetic solver (:class:`IncrementalDifferenceLogic` until the first
    non-difference constraint arrives, then transparently migrated to
    :class:`IncrementalLinearInt`).  Every streamed literal pushes one
    frame recording both theories' trail heights, so ``on_backjump`` can
    retract them in lockstep with the SAT trail regardless of which theory
    (if any) the literal belonged to.

    The atom vocabulary — which SAT variable means which theory atom — is
    registered up front (and extended incrementally by the persistent
    engine) and survives backjumps, restarts and check boundaries; only the
    asserted trail retracts.
    """

    def __init__(
        self,
        constraint_cache: Optional[Dict[Tuple[int, bool], Tuple[LinearLe, ...]]] = None,
        idl_propagation: bool = True,
    ) -> None:
        self._euf = IncrementalCongruenceClosure()
        self._idl_propagation = idl_propagation
        self._arith: Union[IncrementalDifferenceLogic, IncrementalLinearInt] = (
            IncrementalDifferenceLogic(propagate=idl_propagation)
        )
        self._arith_is_lia = False
        self._deadline: Optional[float] = None
        # After migrating to LIA, the retired IDL solver is kept (frozen)
        # so the lazy explanations of its still-live propagations resolve.
        self._idl_frozen: Optional[IncrementalDifferenceLogic] = None
        self._arith_vars: Dict[int, Term] = {}
        self._euf_vars: Dict[int, Term] = {}
        self._cache = constraint_cache if constraint_cache is not None else {}
        # Memoised "does asserting this phase of this atom force the LIA
        # migration?" — the check walks every constraint of the atom, and
        # on_assert is the single hottest theory entry point.
        self._needs_lia: Dict[Tuple[int, bool], bool] = {}
        # Memoised IDL edge groups per atom phase (see idl.edge_groups):
        # the graph edges of an assertion are a pure function of the atom
        # and its polarity, and re-deriving them dominated assert time.
        self._idl_edges: Dict[Tuple[int, bool], list] = {}
        # One (arith_height, euf_height) frame per streamed literal.
        self._frames: List[Tuple[int, int]] = []
        # EUF trail height at the time each propagation was emitted, so a
        # lazy explanation can be restricted to the antecedent prefix.
        self._prop_basis: Dict[int, int] = {}
        self._arith_model: Dict[str, int] = {}
        self._euf_model: Dict[str, int] = {}
        #: Trail literals streamed in through :meth:`on_assert`.
        self.asserts = 0
        #: Explanation accounting (conflicts + lazy propagation reasons).
        self.explanations = 0
        self.explanation_literals = 0
        #: Propagations emitted, split by originating theory.
        self.euf_propagations = 0
        self.idl_propagations = 0

    # -- vocabulary -------------------------------------------------------------

    def register_atom(self, atom: Term, var: int) -> None:
        """Declare SAT variable ``var`` as theory atom ``atom``."""
        kind = _classify_atom(atom)
        _reject_atom_kind(kind)
        if kind == "arith":
            self._arith_vars[var] = atom
            if self._idl_propagation and not self._arith_is_lia:
                self._register_idl_atom(var)
        elif kind == "euf":
            self._euf_vars[var] = atom
            self._euf.register_atom(var, atom.args[0], atom.args[1])

    def set_idl_propagation(self, enabled: bool) -> None:
        """Pause/resume IDL bound propagation at a check boundary.

        Pausing only stops *new* emissions (already-reported literals keep
        their lazily materialisable explanations), so it is always sound.
        Resuming re-enables detection for the atoms registered while the
        lane was on — a core constructed with ``idl_propagation=False``
        never registered any, so the toggle is a no-op there.
        """
        self._idl_propagation = enabled
        if isinstance(self._arith, IncrementalDifferenceLogic):
            self._arith.set_propagation(enabled)

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Bound the LIA lane's Fourier–Motzkin work by a monotonic instant.

        Past it the lane raises :class:`~repro.smt.sat.TheoryTimeout`; the
        IDL and EUF lanes are bounded by the SAT core's own polling.
        """
        self._deadline = deadline
        if self._arith_is_lia:
            self._arith.deadline = deadline

    def _register_idl_atom(self, var: int) -> None:
        """Register ``var`` for IDL bound propagation when both phases fit.

        Non-difference atoms (which will migrate the lane to LIA the moment
        they are asserted) and atoms whose negation is not a conjunctive
        constraint simply stay unregistered — propagation is an
        optimisation, never a requirement.
        """
        try:
            positive = self._constraints_for(var, True)
            negative = self._constraints_for(var, False)
        except SolverError:
            return
        if len(positive) != 1 or len(negative) != 1:
            return
        if not positive[0].is_difference or not negative[0].is_difference:
            return
        assert isinstance(self._arith, IncrementalDifferenceLogic)
        self._arith.register_atom(var, positive[0], negative[0])

    @property
    def num_arith_atoms(self) -> int:
        return len(self._arith_vars)

    @property
    def num_euf_atoms(self) -> int:
        return len(self._euf_vars)

    @property
    def arith_model(self) -> Dict[str, int]:
        """Arithmetic model captured by the last successful final check."""
        return self._arith_model

    @property
    def euf_model(self) -> Dict[str, int]:
        """EUF model captured by the last successful final check."""
        return self._euf_model

    def _constraints_for(self, var: int, positive: bool) -> Tuple[LinearLe, ...]:
        key = (var, positive)
        cached = self._cache.get(key)
        if cached is None:
            cached = tuple(atom_to_constraints(self._arith_vars[var], positive))
            self._cache[key] = cached
        return cached

    def _migrate_to_lia(self) -> None:
        """Replay the IDL trail into a LIA solver (first non-difference atom)."""
        lia = IncrementalLinearInt()
        lia.deadline = self._deadline
        for lit, constraints in self._arith.assertions:
            conflict = lia.assert_lit(lit, constraints)
            if conflict is not None:  # pragma: no cover - IDL-feasible prefix
                raise SolverError("LIA migration of a consistent IDL trail failed")
        # Freeze the IDL solver for lazy explanations of propagations it
        # already reported: a live propagated literal's explanation prefix
        # is exactly the frozen solver's edge prefix, which never mutates
        # again.  Undrained pending entailments are dropped — propagation
        # is best-effort and the LIA lane has no propagation of its own.
        assert isinstance(self._arith, IncrementalDifferenceLogic)
        self._arith.take_propagations()
        self._idl_frozen = self._arith
        self._arith = lia
        self._arith_is_lia = True

    # -- TheoryListener ---------------------------------------------------------

    def on_assert(self, lit: int) -> Optional[Sequence[int]]:
        self.asserts += 1
        var = abs(lit)
        self._frames.append((self._arith.num_asserted, self._euf.num_asserted))
        conflict: Optional[List[int]] = None
        if var in self._arith_vars:
            constraints = self._constraints_for(var, lit > 0)
            if not self._arith_is_lia:
                key = (var, lit > 0)
                needs_lia = self._needs_lia.get(key)
                if needs_lia is None:
                    needs_lia = any(not c.is_difference for c in constraints)
                    self._needs_lia[key] = needs_lia
                if needs_lia:
                    self._migrate_to_lia()
            if self._arith_is_lia:
                conflict = self._arith.assert_lit(lit, constraints)
            else:
                key = (var, lit > 0)
                edges = self._idl_edges.get(key)
                if edges is None:
                    edges = edge_groups(lit, constraints)
                    self._idl_edges[key] = edges
                conflict = self._arith.assert_lit(lit, constraints, edges)
        elif var in self._euf_vars:
            atom = self._euf_vars[var]
            conflict = self._euf.assert_lit(lit, atom.args[0], atom.args[1], lit > 0)
        if conflict is not None:
            self._record_explanation(conflict)
        return conflict

    def propagations(self) -> Sequence[int]:
        pending = self._euf.entailed()
        if pending:
            basis = self._euf.num_asserted
            for lit in pending:
                if lit not in self._prop_basis:
                    self.euf_propagations += 1
                self._prop_basis[lit] = basis
        if self._idl_propagation and not self._arith_is_lia:
            assert isinstance(self._arith, IncrementalDifferenceLogic)
            idl_pending = self._arith.take_propagations()
            if idl_pending:
                self.idl_propagations += len(idl_pending)
                pending = list(pending) + idl_pending
        return pending

    def explain(self, lit: int) -> Sequence[int]:
        if abs(lit) in self._arith_vars:
            solver = self._idl_frozen if self._arith_is_lia else self._arith
            assert isinstance(solver, IncrementalDifferenceLogic)
            explanation: Sequence[int] = solver.explain_entailed(lit)
        else:
            explanation = self._euf.explain(lit, limit=self._prop_basis.get(lit))
        self._record_explanation(explanation)
        return explanation

    def on_backjump(self, kept: int) -> None:
        if kept >= len(self._frames):
            return
        arith_height, euf_height = self._frames[kept]
        del self._frames[kept:]
        self._arith.retract_to(arith_height)
        self._euf.retract_to(euf_height)
        if self._prop_basis:
            self._prop_basis = {
                lit: basis
                for lit, basis in self._prop_basis.items()
                if basis <= euf_height
            }

    def on_final_check(self) -> Optional[Sequence[int]]:
        if self._arith_is_lia:
            result = self._arith.final_check()
            if not result.satisfiable:
                conflict = sorted(set(result.conflict or []))
                self._record_explanation(conflict)
                return conflict
            self._arith_model = result.model or {}
        else:
            self._arith_model = self._arith.model()
        self._euf_model = self._euf.model()
        return None

    # -- internals --------------------------------------------------------------

    def _record_explanation(self, lits: Sequence[int]) -> None:
        self.explanations += 1
        self.explanation_literals += len(lits)


class DpllTEngine:
    """One-shot DPLL(T) check over a list of assertions.

    The engine is cheap to construct; :class:`repro.smt.solver.Solver`
    creates a fresh engine per ``check`` call, which keeps the public API
    simple (push/pop is handled at the assertion-stack level).

    ``theory_mode="online"`` (default) wires the incremental theories into
    the SAT search; ``theory_mode="offline"`` runs the classic
    model-then-check lazy loop — kept as the reference semantics for
    differential testing.
    """

    def __init__(
        self,
        assertions: Sequence[Term],
        max_iterations: int = 200_000,
        theory_mode: str = "online",
        reduce_db: bool = True,
        reduce_base: int = DEFAULT_REDUCE_BASE,
        theory_bump: float = DEFAULT_THEORY_BUMP,
        idl_propagation: bool = True,
    ) -> None:
        self._raw_assertions = list(assertions)
        self._max_iterations = max_iterations
        self.theory_mode = _validate_theory_mode(theory_mode)
        self._reduce_db = reduce_db
        self._reduce_base = reduce_base
        self._theory_bump = theory_bump
        self._idl_propagation = idl_propagation
        self._deadline: Optional[float] = None
        self.stats = SmtStats()
        self._model: Optional[Model] = None

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Bound every later :meth:`check` by a ``time.monotonic`` instant.

        A check that runs past the deadline returns
        :data:`CheckResult.UNKNOWN` — the wall-clock twin of the
        ``max_iterations`` budget.  ``None`` clears the bound.
        """
        self._deadline = deadline

    def _make_sat_solver(self) -> SatSolver:
        return SatSolver(
            reduce_db=self._reduce_db,
            reduce_base=self._reduce_base,
            theory_bump=self._theory_bump,
        )

    # ------------------------------------------------------------------ public

    def check(self) -> CheckResult:
        """Run the DPLL(T) search to completion."""
        if self.theory_mode == "offline":
            return self._check_offline()
        return self._check_online()

    def model(self) -> Model:
        """The model found by the last successful :meth:`check`."""
        if self._model is None:
            raise SolverError("no model available (last check was not SAT)")
        return self._model

    # ------------------------------------------------------------------ online

    def _check_online(self) -> CheckResult:
        assertions = [preprocess(a) for a in self._raw_assertions]
        cnf = tseitin(assertions)
        self.stats.sat_clauses = len(cnf.clauses)
        self.stats.sat_variables = cnf.num_vars
        self.stats.atoms = len(cnf.atom_to_var)

        sat = self._make_sat_solver()
        sat.ensure_vars(cnf.num_vars)
        core = TheoryCore(idl_propagation=self._idl_propagation)
        core.set_deadline(self._deadline)
        sat.set_theory(core)
        for atom, var in cnf.atom_to_var.items():
            core.register_atom(atom, var)
        self.stats.arith_atoms = core.num_arith_atoms
        self.stats.euf_atoms = core.num_euf_atoms

        variables: Dict[str, object] = {}
        for assertion in assertions:
            variables.update(free_variables(assertion))

        try:
            if not sat.add_clauses(cnf.clauses):
                return CheckResult.UNSAT
            if self._max_iterations is not None and self._max_iterations < 1:
                return CheckResult.UNKNOWN
            # The iteration budget bounds *theory* conflicts (the online
            # analogue of offline's blocking-clause rounds); purely Boolean
            # search stays unbudgeted, exactly like the offline loop.
            result = sat.solve(
                theory_conflict_limit=self._max_iterations,
                deadline=self._deadline,
            )
            if result is SatResult.UNSAT:
                return CheckResult.UNSAT
            if result is SatResult.UNKNOWN:
                return CheckResult.UNKNOWN
            self._model = _assemble_model(
                cnf.atom_to_var,
                sat.model(),
                variables,
                core.arith_model,
                core.euf_model,
            )
            return CheckResult.SAT
        finally:
            # Single capture point: every exit path reports the same numbers.
            self.stats.sat_decisions = sat.stats.decisions
            self.stats.sat_conflicts = sat.stats.conflicts
            self.stats.theory_conflicts = sat.stats.theory_conflicts
            self.stats.theory_asserts = core.asserts
            self.stats.theory_propagations = sat.stats.theory_propagations
            self.stats.theory_propagations_euf = core.euf_propagations
            self.stats.theory_propagations_idl = core.idl_propagations
            self.stats.theory_partial_conflicts = sat.stats.theory_partial_conflicts
            self.stats.iterations = 1 + sat.stats.theory_conflicts
            self.stats.explanations = core.explanations
            self.stats.explanation_literals = core.explanation_literals
            self.stats.reduce_db_rounds = sat.stats.reduce_db_rounds
            self.stats.clauses_deleted = sat.stats.clauses_deleted
            self.stats.max_live_learned = sat.stats.max_live_learned
            self.stats.compactions = getattr(sat.stats, "compactions", 0)
            self.stats.arena_bytes = getattr(sat.stats, "arena_bytes", 0)

    # ------------------------------------------------------------------ offline

    def _check_offline(self) -> CheckResult:
        assertions = [preprocess(a) for a in self._raw_assertions]
        cnf = tseitin(assertions)
        self.stats.sat_clauses = len(cnf.clauses)
        self.stats.sat_variables = cnf.num_vars
        self.stats.atoms = len(cnf.atom_to_var)

        sat = self._make_sat_solver()
        sat.ensure_vars(cnf.num_vars)

        arith_atoms: Dict[Term, int] = {}
        euf_atoms: Dict[Term, int] = {}
        for atom, var in cnf.atom_to_var.items():
            _partition_atom(atom, var, arith_atoms, euf_atoms)
        self.stats.arith_atoms = len(arith_atoms)
        self.stats.euf_atoms = len(euf_atoms)

        variables: Dict[str, object] = {}
        for assertion in assertions:
            variables.update(free_variables(assertion))

        constraint_cache: Dict[Tuple[int, bool], Tuple[LinearLe, ...]] = {}
        try:
            if not sat.add_clauses(cnf.clauses):
                return CheckResult.UNSAT
            while True:
                self.stats.iterations += 1
                if self.stats.iterations > self._max_iterations:
                    return CheckResult.UNKNOWN
                if self._deadline is not None and time.monotonic() >= self._deadline:
                    return CheckResult.UNKNOWN
                result = sat.solve(deadline=self._deadline)
                if result is SatResult.UNSAT:
                    return CheckResult.UNSAT
                if result is SatResult.UNKNOWN:  # pragma: no cover - no limit set
                    return CheckResult.UNKNOWN

                bool_model = sat.model()
                conflict_lits, arith_model, euf_model = _theory_consistency(
                    arith_atoms, euf_atoms, bool_model, constraint_cache
                )
                if conflict_lits is None:
                    # Theories agree: assemble the model.
                    self._model = _assemble_model(
                        cnf.atom_to_var, bool_model, variables, arith_model, euf_model
                    )
                    return CheckResult.SAT

                self.stats.theory_conflicts += 1
                if not conflict_lits:
                    # Theory inconsistency independent of any decision.
                    return CheckResult.UNSAT
                if not sat.add_clause([-lit for lit in conflict_lits]):
                    return CheckResult.UNSAT
        finally:
            # Single capture point: the UNSAT/UNKNOWN early returns used to
            # leave sat_decisions/sat_conflicts stale or zero.
            self.stats.sat_decisions = sat.stats.decisions
            self.stats.sat_conflicts = sat.stats.conflicts
            self.stats.reduce_db_rounds = sat.stats.reduce_db_rounds
            self.stats.clauses_deleted = sat.stats.clauses_deleted
            self.stats.max_live_learned = sat.stats.max_live_learned
            self.stats.compactions = getattr(sat.stats, "compactions", 0)
            self.stats.arena_bytes = getattr(sat.stats, "arena_bytes", 0)


class IncrementalDpllTEngine:
    """A persistent DPLL(T) engine with add/push/pop and assumption checks.

    Where :class:`DpllTEngine` is rebuilt from scratch for every query, this
    engine keeps all solver state alive across ``check`` calls:

    * one :class:`~repro.smt.cnf.TseitinConverter` — atoms keep their
      propositional variables and gate definitions are shared, so asserting
      the same subformula twice costs nothing;
    * one :class:`~repro.smt.sat.SatSolver` — learned clauses, variable
      activities and saved phases survive between checks;
    * one :class:`TheoryCore` (online mode) — the incremental theory
      solvers and their atom vocabulary persist alongside the SAT core;
      clauses learned from theory conflicts speak about the atom
      vocabulary, not a particular assertion set, so they remain valid and
      persist too (offline mode keeps the equivalent blocking clauses).

    Scopes are implemented with *selector literals* in the MiniSat
    tradition: an assertion added after a :meth:`push` is encoded as
    ``selector -> assertion`` and every :meth:`check` assumes the selectors
    of the open scopes; :meth:`pop` retires a selector by asserting its
    negation, which permanently satisfies the scope's clauses, and then
    deletes them.  Per-call
    assumptions are Tseitin-encoded to literals and assumed the same way.
    This is what makes blocking-clause enumeration and reachability probes
    cheap: the clause database is never rebuilt, only extended.
    """

    def __init__(
        self,
        max_iterations: int = 200_000,
        theory_mode: str = "online",
        reduce_db: bool = True,
        reduce_base: int = DEFAULT_REDUCE_BASE,
        theory_bump: float = DEFAULT_THEORY_BUMP,
        idl_propagation: bool = True,
    ) -> None:
        self._converter = TseitinConverter()
        self._sat = SatSolver(
            reduce_db=reduce_db,
            reduce_base=reduce_base,
            theory_bump=theory_bump,
        )
        self._max_iterations = max_iterations
        self.theory_mode = _validate_theory_mode(theory_mode)
        self._deadline: Optional[float] = None
        self._clauses_fed = 0
        self._atoms_seen = 0
        self._arith_atoms: Dict[Term, int] = {}
        self._euf_atoms: Dict[Term, int] = {}
        self._variables: Dict[str, object] = {}
        self._selectors: List[int] = []
        self._constraint_cache: Dict[Tuple[int, bool], Tuple[LinearLe, ...]] = {}
        self._core: Optional[TheoryCore] = None
        if self.theory_mode == "online":
            self._core = TheoryCore(
                self._constraint_cache, idl_propagation=idl_propagation
            )
            self._sat.set_theory(self._core)
        self._model: Optional[Model] = None
        self._last_result: Optional[CheckResult] = None
        #: Statistics of the most recent :meth:`check`.
        self.stats = SmtStats()
        #: Number of ``check`` calls served by this engine instance.
        self.total_checks = 0

    # ------------------------------------------------------------------ assertions

    def add(self, term: Term) -> None:
        """Assert ``term`` in the current scope."""
        term = preprocess(term)
        self._variables.update(free_variables(term))
        self._invalidate()
        if self._selectors:
            self._encode_guarded(term, self._selectors[-1])
        else:
            self._converter.encode_assertion(term)
        self._flush()

    def push(self) -> None:
        """Open a scope: later assertions hold only while the scope is open.

        Opening a scope adds no constraints, so the model of the last check
        (if any) stays valid and available.
        """
        self._selectors.append(self._converter.fresh_var())

    def pop(self) -> None:
        """Close the innermost scope, retiring its assertions."""
        if not self._selectors:
            raise SolverError("pop without matching push")
        selector = self._selectors.pop()
        self._sat.ensure_vars(self._converter.result.num_vars)
        self._sat.add_clause([-selector])
        # The retired scope's clauses (and every lemma that mentions the
        # selector) are now satisfied at level 0: drop them, so a
        # long-lived engine's clause database does not grow per scope.
        self._sat.remove_satisfied()
        self._invalidate()

    @property
    def scope_depth(self) -> int:
        """Number of currently open scopes."""
        return len(self._selectors)

    # ------------------------------------------------------------------ solving

    def check(self, *assumptions: Term) -> CheckResult:
        """Decide satisfiability of the live assertions plus ``assumptions``.

        Assumptions are scoped to this single call; nothing learned from a
        previous call is forgotten.
        """
        self._model = None
        self.total_checks += 1
        assumption_lits: List[int] = []
        for term in assumptions:
            term = preprocess(term)
            self._variables.update(free_variables(term))
            assumption_lits.append(self._converter.literal(term))
        self._flush()

        stats = SmtStats()
        self.stats = stats
        stats.sat_clauses = self._sat.num_clauses
        stats.sat_variables = self._sat.num_vars
        stats.atoms = self._atoms_seen
        if self._core is not None:
            stats.arith_atoms = self._core.num_arith_atoms
            stats.euf_atoms = self._core.num_euf_atoms
        else:
            stats.arith_atoms = len(self._arith_atoms)
            stats.euf_atoms = len(self._euf_atoms)

        sat_assumptions = list(self._selectors) + assumption_lits
        if self.theory_mode == "online":
            return self._check_online(stats, sat_assumptions)
        return self._check_offline(stats, sat_assumptions)

    def _check_online(
        self, stats: SmtStats, sat_assumptions: List[int]
    ) -> CheckResult:
        assert self._core is not None
        sat, core = self._sat, self._core
        # The SAT core's counters are engine-lifetime; report per-check deltas.
        base_decisions = sat.stats.decisions
        base_conflicts = sat.stats.conflicts
        base_theory_conflicts = sat.stats.theory_conflicts
        base_theory_propagations = sat.stats.theory_propagations
        base_partial = sat.stats.theory_partial_conflicts
        base_asserts = core.asserts
        base_explanations = core.explanations
        base_explanation_lits = core.explanation_literals
        base_euf_props = core.euf_propagations
        base_idl_props = core.idl_propagations
        base_reduce_rounds = sat.stats.reduce_db_rounds
        base_deleted = sat.stats.clauses_deleted
        core.set_deadline(self._deadline)
        try:
            if self._max_iterations is not None and self._max_iterations < 1:
                return self._finish(CheckResult.UNKNOWN)
            # Budget theory conflicts only (see DpllTEngine._check_online).
            result = sat.solve(
                sat_assumptions,
                theory_conflict_limit=self._max_iterations,
                deadline=self._deadline,
            )
            if result is SatResult.UNSAT:
                return self._finish(CheckResult.UNSAT)
            if result is SatResult.UNKNOWN:
                return self._finish(CheckResult.UNKNOWN)
            self._model = _assemble_model(
                self._converter.result.atom_to_var,
                sat.model(),
                self._variables,
                core.arith_model,
                core.euf_model,
            )
            return self._finish(CheckResult.SAT)
        finally:
            stats.sat_decisions = sat.stats.decisions - base_decisions
            stats.sat_conflicts = sat.stats.conflicts - base_conflicts
            stats.theory_conflicts = (
                sat.stats.theory_conflicts - base_theory_conflicts
            )
            stats.theory_propagations = (
                sat.stats.theory_propagations - base_theory_propagations
            )
            stats.theory_partial_conflicts = (
                sat.stats.theory_partial_conflicts - base_partial
            )
            stats.iterations = 1 + stats.theory_conflicts
            stats.theory_asserts = core.asserts - base_asserts
            stats.explanations = core.explanations - base_explanations
            stats.explanation_literals = (
                core.explanation_literals - base_explanation_lits
            )
            stats.theory_propagations_euf = core.euf_propagations - base_euf_props
            stats.theory_propagations_idl = core.idl_propagations - base_idl_props
            stats.reduce_db_rounds = (
                sat.stats.reduce_db_rounds - base_reduce_rounds
            )
            stats.clauses_deleted = sat.stats.clauses_deleted - base_deleted
            # A gauge, not a counter: the engine-lifetime peak is the number
            # that shows whether the live clause set stays bounded.
            stats.max_live_learned = sat.stats.max_live_learned
            stats.compactions = getattr(sat.stats, "compactions", 0)
            stats.arena_bytes = getattr(sat.stats, "arena_bytes", 0)

    def _check_offline(
        self, stats: SmtStats, sat_assumptions: List[int]
    ) -> CheckResult:
        # The SAT core's counters are engine-lifetime; report per-check deltas.
        base_decisions = self._sat.stats.decisions
        base_conflicts = self._sat.stats.conflicts
        base_reduce_rounds = self._sat.stats.reduce_db_rounds
        base_deleted = self._sat.stats.clauses_deleted
        try:
            while True:
                stats.iterations += 1
                if stats.iterations > self._max_iterations:
                    return self._finish(CheckResult.UNKNOWN)
                if (
                    self._deadline is not None
                    and time.monotonic() >= self._deadline
                ):
                    return self._finish(CheckResult.UNKNOWN)
                result = self._sat.solve(sat_assumptions, deadline=self._deadline)
                if result is SatResult.UNSAT:
                    return self._finish(CheckResult.UNSAT)
                if result is SatResult.UNKNOWN:  # pragma: no cover - no limit set
                    return self._finish(CheckResult.UNKNOWN)

                bool_model = self._sat.model()
                conflict_lits, arith_model, euf_model = _theory_consistency(
                    self._arith_atoms, self._euf_atoms, bool_model,
                    self._constraint_cache,
                )
                if conflict_lits is None:
                    self._model = _assemble_model(
                        self._converter.result.atom_to_var,
                        bool_model,
                        self._variables,
                        arith_model,
                        euf_model,
                    )
                    return self._finish(CheckResult.SAT)

                stats.theory_conflicts += 1
                if not conflict_lits:  # pragma: no cover - theories always explain
                    return self._finish(CheckResult.UNSAT)
                # The lemma is theory-valid, so it may outlive scopes and
                # assumptions: this is the learned state reused across checks.
                if not self._sat.add_clause([-lit for lit in conflict_lits]):
                    return self._finish(CheckResult.UNSAT)
        finally:
            stats.sat_decisions = self._sat.stats.decisions - base_decisions
            stats.sat_conflicts = self._sat.stats.conflicts - base_conflicts
            stats.reduce_db_rounds = (
                self._sat.stats.reduce_db_rounds - base_reduce_rounds
            )
            stats.clauses_deleted = self._sat.stats.clauses_deleted - base_deleted
            stats.max_live_learned = self._sat.stats.max_live_learned
            stats.compactions = getattr(self._sat.stats, "compactions", 0)
            stats.arena_bytes = getattr(self._sat.stats, "arena_bytes", 0)

    def model(self) -> Model:
        """The model of the last :meth:`check`, which must have returned SAT."""
        if self._model is None:
            raise SolverError("model() requires the previous check() to be SAT")
        return self._model

    def set_idl_propagation(self, enabled: bool) -> None:
        """Pause/resume IDL bound propagation between checks (online mode).

        Model-enumeration loops toggle the lane off: streaming SAT models
        rarely profits from bound propagation, while the per-assertion
        entailment pass still costs two Dijkstras.  A no-op in offline mode.
        """
        if self._core is not None:
            self._core.set_idl_propagation(enabled)

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Bound every later :meth:`check` by a ``time.monotonic`` instant.

        A check that runs past the deadline returns
        :data:`CheckResult.UNKNOWN`; ``None`` clears the bound.  The
        deadline is a per-check *query* budget — learned clauses and theory
        state from a timed-out check survive, so a retry with a larger
        budget starts warm.
        """
        self._deadline = deadline

    @property
    def last_result(self) -> Optional[CheckResult]:
        """Outcome of the most recent check (None after add/push/pop)."""
        return self._last_result

    # ------------------------------------------------------------------ internals

    def _finish(self, result: CheckResult) -> CheckResult:
        self._last_result = result
        return result

    def _invalidate(self) -> None:
        self._model = None
        self._last_result = None

    def _encode_guarded(self, term: Term, selector: int) -> None:
        """Encode ``selector -> term``, splitting top-level conjunctions.

        A disjunction (or a negated conjunction, the shape of a blocking
        clause) becomes one clause over its children's literals, so it
        costs no definition variable and no gate clauses.
        """
        if term.is_true:
            return
        if term.kind == "and":
            for child in term.args:
                self._encode_guarded(child, selector)
            return
        literal = self._converter.literal
        if term.kind == "or":
            lits = [literal(child) for child in term.args]
        elif term.kind == "not" and term.args[0].kind == "and":
            lits = [-literal(child) for child in term.args[0].args]
        else:
            lits = [literal(term)]
        self._converter.add_raw_clause([-selector] + lits)

    def _flush(self) -> None:
        """Feed clauses and atoms created since the last flush to the SAT core."""
        result = self._converter.result
        self._sat.ensure_vars(result.num_vars)
        clauses = result.clauses
        while self._clauses_fed < len(clauses):
            self._sat.add_clause(clauses[self._clauses_fed])
            self._clauses_fed += 1
        if len(result.atom_to_var) > self._atoms_seen:
            atom_items = list(result.atom_to_var.items())
            # Advance the counter per atom: if partitioning rejects one (e.g.
            # an unsupported Boolean predicate), atoms after it must not be
            # silently skipped — the next flush retries and re-raises.
            while self._atoms_seen < len(atom_items):
                atom, var = atom_items[self._atoms_seen]
                if self._core is not None:
                    self._core.register_atom(atom, var)
                else:
                    _partition_atom(atom, var, self._arith_atoms, self._euf_atoms)
                self._atoms_seen += 1
