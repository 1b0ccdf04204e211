"""Linear integer arithmetic (QF_LIA) theory solver.

The solver decides satisfiability of a conjunction of constraints

    sum_i c_i * x_i  <=  k        (c_i, k integers, x_i integer variables)

in two stages:

1. **Rational feasibility** by Fourier–Motzkin elimination with exact
   :class:`fractions.Fraction` arithmetic.  Every derived constraint carries
   the set of original constraint tags it was combined from, so an
   inconsistency (``0 <= negative``) immediately yields an explanation.
2. **Integer feasibility** by branch-and-bound: a rational model is rounded
   variable by variable; whenever a variable cannot take an integer value
   within its implied bounds, the solver branches on ``x <= floor`` versus
   ``x >= ceil`` and recurses.

Two front ends share that machinery: the batch :class:`LinearIntSolver`
(used by the offline lazy loop, one throwaway instance per candidate model)
and the trail-backed :class:`IncrementalLinearInt` (used by the online
DPLL(T) engine: ``assert_lit`` / ``retract_to`` / ``explain`` with a bounded
rational re-check per assertion and the full integer check deferred to the
final-check hook).

The MCAPI trace encoding only produces difference constraints (handled by
the faster :class:`repro.smt.theory.idl.DifferenceLogicSolver`), but the
general solver keeps the SMT layer complete for arbitrary QF_LIA inputs,
e.g. user properties that sum message payloads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.smt.linear import LinearLe
from repro.smt.sat import TheoryTimeout
from repro.smt.theory.idl import TheoryResult
from repro.utils.errors import SolverError

__all__ = ["LinearIntSolver", "IncrementalLinearInt"]

#: Safety cap on branch-and-bound nodes; beyond this the solver gives up
#: (reported as a SolverError rather than a wrong answer).
_MAX_BB_NODES = 20_000


@dataclass(frozen=True)
class _Row:
    """A rational constraint ``sum coeffs[x] * x <= bound`` with provenance."""

    coeffs: Tuple[Tuple[str, Fraction], ...]
    bound: Fraction
    tags: FrozenSet[int]

    def coeff_of(self, var: str) -> Fraction:
        for name, coeff in self.coeffs:
            if name == var:
                return coeff
        return Fraction(0)

    def drop(self, var: str) -> Tuple[Tuple[str, Fraction], ...]:
        return tuple((n, c) for n, c in self.coeffs if n != var)


def _make_row(constraint: LinearLe, tag: int) -> _Row:
    coeffs = tuple(
        (name, Fraction(coeff)) for name, coeff in constraint.expr.coeffs if coeff != 0
    )
    return _Row(coeffs, Fraction(constraint.bound), frozenset([tag]))


# ---------------------------------------------------------------------------
# Shared rational / integer checking over tagged rows
# ---------------------------------------------------------------------------


def _pick_value(lower: Optional[Fraction], upper: Optional[Fraction]) -> Fraction:
    """Choose a value within [lower, upper], preferring integers."""
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        candidate = Fraction(math.floor(upper))
        return candidate if candidate <= upper else upper
    if upper is None:
        candidate = Fraction(math.ceil(lower))
        return candidate if candidate >= lower else lower
    # Both bounds present (lower <= upper is guaranteed by FM feasibility).
    candidate = Fraction(math.ceil(lower))
    if lower <= candidate <= upper:
        return candidate
    return lower


def _find_conflict(rows: List[_Row]) -> Optional[FrozenSet[int]]:
    for row in rows:
        if not row.coeffs and row.bound < 0:
            return row.tags
    return None


def _eliminate(
    rows: List[_Row], var: str, deadline: Optional[float] = None
) -> List[_Row]:
    """One Fourier–Motzkin elimination step for ``var``.

    One step can square the row count, so a ``deadline`` (a
    ``time.monotonic`` instant) is polled every 64 combined rows and
    :class:`~repro.smt.sat.TheoryTimeout` raised once it has passed.
    """
    uppers: List[_Row] = []   # coeff > 0  ->  var <= ...
    lowers: List[_Row] = []   # coeff < 0  ->  var >= ...
    others: List[_Row] = []
    for row in rows:
        coeff = row.coeff_of(var)
        if coeff > 0:
            uppers.append(row)
        elif coeff < 0:
            lowers.append(row)
        else:
            others.append(row)

    new_rows = list(others)
    poll = 0
    for up in uppers:
        cu = up.coeff_of(var)
        for lo in lowers:
            if deadline is not None:
                poll += 1
                if poll >= 64:
                    poll = 0
                    if time.monotonic() >= deadline:
                        raise TheoryTimeout("Fourier-Motzkin elimination")
            cl = -lo.coeff_of(var)
            # Combine: cl * up + cu * lo eliminates var.
            coeffs: Dict[str, Fraction] = {}
            for name, c in up.drop(var):
                coeffs[name] = coeffs.get(name, Fraction(0)) + cl * c
            for name, c in lo.drop(var):
                coeffs[name] = coeffs.get(name, Fraction(0)) + cu * c
            bound = cl * up.bound + cu * lo.bound
            new_rows.append(
                _Row(
                    tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
                    bound,
                    up.tags | lo.tags,
                )
            )
    return new_rows


def _rational_check(rows: List[_Row], deadline: Optional[float] = None):
    """Fourier–Motzkin feasibility over the rationals.

    Returns ``(True, model)`` or ``(False, conflict_tags)``; ``deadline``
    is passed on to :func:`_eliminate`.
    """
    variables = sorted({name for row in rows for name, _ in row.coeffs})
    # systems[k] is the constraint system *before* eliminating variables[k].
    systems: List[List[_Row]] = []
    current = list(rows)

    for var in variables:
        systems.append(current)
        current = _eliminate(current, var, deadline)
        conflict = _find_conflict(current)
        if conflict is not None:
            return False, conflict

    conflict = _find_conflict(current)
    if conflict is not None:
        return False, conflict

    # Back-substitute to build a model.
    model: Dict[str, Fraction] = {}
    for var, system in zip(reversed(variables), reversed(systems)):
        lower: Optional[Fraction] = None
        upper: Optional[Fraction] = None
        for row in system:
            coeff = row.coeff_of(var)
            if coeff == 0:
                continue
            rest = row.bound
            for name, c in row.coeffs:
                if name != var:
                    rest -= c * model.get(name, Fraction(0))
            limit = rest / coeff
            if coeff > 0:
                upper = limit if upper is None else min(upper, limit)
            else:
                lower = limit if lower is None else max(lower, limit)
        model[var] = _pick_value(lower, upper)
    return True, model


class _RowChecker:
    """Branch-and-bound integer feasibility over tagged rows."""

    def __init__(
        self, fallback_tags: Iterable[int], deadline: Optional[float] = None
    ) -> None:
        self._fallback = sorted(set(fallback_tags))
        self._nodes = 0
        self._deadline = deadline

    def check(self, rows: List[_Row]) -> TheoryResult:
        self._nodes += 1
        if self._nodes > _MAX_BB_NODES:
            raise SolverError("LIA branch-and-bound node limit exceeded")

        feasible, model_or_conflict = _rational_check(rows, self._deadline)
        if not feasible:
            return TheoryResult(satisfiable=False, conflict=sorted(model_or_conflict))

        model: Dict[str, Fraction] = model_or_conflict
        fractional = [v for v, value in model.items() if value.denominator != 1]
        if not fractional:
            return TheoryResult(
                satisfiable=True, model={v: int(value) for v, value in model.items()}
            )

        # Branch on the first fractional variable.
        var = sorted(fractional)[0]
        value = model[var]
        floor_value = math.floor(value)

        low_branch = rows + [
            _Row(((var, Fraction(1)),), Fraction(floor_value), frozenset())
        ]
        result = self.check(low_branch)
        if result.satisfiable:
            return result

        high_branch = rows + [
            _Row(((var, Fraction(-1)),), Fraction(-(floor_value + 1)), frozenset())
        ]
        result = self.check(high_branch)
        if result.satisfiable:
            return result

        # Neither branch is integer-feasible.  The union of both explanations,
        # restricted to original constraint tags, is a valid explanation (the
        # branching cuts themselves carry no tags), but localising it is
        # subtle; fall back to the full tag set.
        return TheoryResult(satisfiable=False, conflict=list(self._fallback))


class LinearIntSolver:
    """Decides conjunctions of linear integer constraints (batch mode)."""

    def __init__(self) -> None:
        self._constraints: List[LinearLe] = []

    def assert_constraint(self, constraint: LinearLe) -> int:
        index = len(self._constraints)
        self._constraints.append(constraint)
        return index

    def assert_all(self, constraints: Sequence[LinearLe]) -> None:
        for constraint in constraints:
            self.assert_constraint(constraint)

    def __len__(self) -> int:
        return len(self._constraints)

    def check(self) -> TheoryResult:
        """Check integer satisfiability of everything asserted so far."""
        rows = [_make_row(c, i) for i, c in enumerate(self._constraints)]
        checker = _RowChecker(range(len(self._constraints)))
        return checker.check(rows)


# ---------------------------------------------------------------------------
# Incremental LIA for the online DPLL(T) engine
# ---------------------------------------------------------------------------


class IncrementalLinearInt:
    """Trail-backed LIA: ``assert_lit`` / ``retract_to`` / ``explain``.

    Rows are tagged with the asserting SAT literal, so rational conflicts
    explain themselves directly in trail vocabulary.  Each assertion runs a
    *bounded* incremental re-check: rational (Fourier–Motzkin) feasibility
    only, and only while the row count stays under ``recheck_rows_limit`` —
    catching most conflicts on small partial assignments without paying FM
    on every assertion of a large trail.  Full integer feasibility
    (branch-and-bound) runs once per complete assignment via
    :meth:`final_check`, exactly like an SMT final-check hook.

    Fourier–Motzkin can grow its rows without bound, so both the re-check
    and the final check poll ``deadline`` (a ``time.monotonic`` instant,
    ``None`` for no bound) and raise :class:`~repro.smt.sat.TheoryTimeout`
    past it; the SAT core then unwinds the trail and answers UNKNOWN.
    """

    def __init__(self, recheck_rows_limit: int = 64) -> None:
        self.deadline: Optional[float] = None
        self._recheck_rows_limit = recheck_rows_limit
        self._rows: List[_Row] = []
        # (lit, constraints, rows_before) per assert_lit call.
        self._frames: List[Tuple[int, Tuple[LinearLe, ...], int]] = []

    # -- trail ------------------------------------------------------------------

    @property
    def num_asserted(self) -> int:
        return len(self._frames)

    @property
    def assertions(self) -> List[Tuple[int, Tuple[LinearLe, ...]]]:
        return [(lit, constraints) for lit, constraints, _ in self._frames]

    def assert_lit(
        self, lit: int, constraints: Sequence[LinearLe]
    ) -> Optional[List[int]]:
        """Assert ``constraints`` under ``lit``; returns conflict lits or None."""
        rows_before = len(self._rows)
        self._frames.append((lit, tuple(constraints), rows_before))
        for constraint in constraints:
            if not constraint.expr.coeffs and constraint.bound < 0:
                return [lit]
            self._rows.append(_make_row(constraint, lit))
        if rows_before < len(self._rows) and len(self._rows) <= self._recheck_rows_limit:
            feasible, conflict = _rational_check(self._rows, self.deadline)
            if not feasible:
                return sorted(set(conflict) | {lit})
        return None

    def retract_to(self, count: int) -> None:
        while len(self._frames) > count:
            _, _, rows_before = self._frames.pop()
            del self._rows[rows_before:]

    # -- queries ----------------------------------------------------------------

    def final_check(self) -> TheoryResult:
        """Full integer feasibility of the current trail (model on success)."""
        checker = _RowChecker((lit for lit, _, _ in self._frames), self.deadline)
        return checker.check(list(self._rows))

    def model(self) -> Dict[str, int]:
        result = self.final_check()
        if not result.satisfiable:
            raise SolverError("model() requires a satisfiable LIA trail")
        return result.model or {}

    def explain(self, lit: int) -> List[int]:
        """Literals of *other* assertions rationally entailing ``lit``.

        Checks that the remaining rows plus the negation of each of
        ``lit``'s constraints are rationally infeasible; the union of the
        FM conflict tags is the explanation.  Integer-only entailments are
        not captured (they would need a cutting-plane proof).
        """
        for frame_lit, constraints, _ in self._frames:
            if frame_lit == lit:
                break
        else:
            raise SolverError(f"literal {lit} is not on the LIA trail")
        others = [row for row in self._rows if lit not in row.tags]
        tags: set = set()
        for constraint in constraints:
            negated_row = _Row(
                tuple((n, Fraction(c)) for n, c in constraint.negated().expr.coeffs),
                Fraction(constraint.negated().bound),
                frozenset(),
            )
            feasible, conflict = _rational_check(others + [negated_row])
            if feasible:
                raise SolverError("LIA explain: literal is not (rationally) entailed")
            tags |= set(conflict)
        tags.discard(lit)
        return sorted(tags)

    def __len__(self) -> int:
        return len(self._frames)
