"""Contract tests for trail reuse in the incremental SAT core.

Between ``solve`` calls the solver keeps its trail: ``add_clause`` backjumps
only to a new clause's assertion level, and ``solve(assumptions)`` keeps
the decision levels that were opened for the same assumption prefix.  These
tests drive random clause/assumption streams through one long-lived solver
and hold every answer against a fresh solver on the same accumulated
clauses — for the native kernel and for the pure-Python loop alike.
"""

import random

import pytest

from repro.smt.sat import SatResult, SatSolver


def _kernel_modes():
    modes = [False]
    if SatSolver().kernel_active:
        modes.append(True)
    return modes


def _lit_true(solver, lit):
    value = solver.value(abs(lit))
    return value is not None and value == (lit > 0)


def _check_model(solver, clauses, assumptions):
    for clause in clauses:
        assert any(_lit_true(solver, lit) for lit in clause), clause
    for lit in assumptions:
        assert _lit_true(solver, lit), lit


def _fresh_verdict(clauses, assumptions, num_vars):
    fresh = SatSolver(use_kernel=False)
    fresh.ensure_vars(num_vars)
    fresh.add_clauses(clauses)
    return fresh.solve(assumptions=assumptions)


def _trail_clause(rng, solver, num_vars, shape):
    """A clause that is falsified, unit or satisfied under the live model."""
    true_lits = [
        v if solver.value(v) else -v
        for v in range(1, num_vars + 1)
        if solver.value(v) is not None
    ]
    picked = rng.sample(true_lits, min(len(true_lits), rng.randint(1, 4)))
    falsified = [-lit for lit in picked]
    if shape == "falsified":
        return falsified
    if shape == "satisfied":
        return falsified + [rng.choice(true_lits)]
    # unit: every literal false but one over a variable the model leaves
    # unassigned (a fresh one).
    return falsified + [rng.choice((1, -1)) * (num_vars + 1)]


@pytest.mark.parametrize("use_kernel", _kernel_modes())
@pytest.mark.parametrize("chunk", range(3))
def test_streams_match_a_fresh_solver(use_kernel, chunk):
    for index in range(12):
        seed = chunk * 12 + index
        rng = random.Random(31_000 + seed)
        num_vars = rng.randint(8, 18)
        solver = SatSolver(use_kernel=use_kernel, reduce_db=True, reduce_base=2)
        solver.ensure_vars(num_vars)
        clauses = []
        verdict = None
        for _round in range(12):
            if verdict is not SatResult.SAT or rng.random() < 0.35:
                width = rng.randint(1, 4)
                batch = [
                    [rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(width)]
                    for _ in range(rng.randint(1, 6))
                ]
            else:
                shape = rng.choice(("falsified", "unit", "satisfied"))
                batch = [_trail_clause(rng, solver, num_vars, shape)]
                if shape == "unit":
                    num_vars += 1
            for clause in batch:
                solver.add_clause(clause)
                clauses.append(clause)
            assumptions = [
                rng.randint(1, num_vars) * rng.choice((1, -1))
                for _ in range(rng.randint(0, 3))
            ]
            # Ask twice: the repeat reuses the whole kept trail.
            for _repeat in range(rng.choice((1, 2))):
                verdict = solver.solve(assumptions=assumptions)
                expected = _fresh_verdict(clauses, assumptions, num_vars)
                assert verdict is expected, f"seed {seed}"
                if verdict is SatResult.SAT:
                    _check_model(solver, clauses, assumptions)
            if verdict is SatResult.UNSAT and not assumptions:
                break


@pytest.mark.parametrize("use_kernel", _kernel_modes())
def test_kept_search_decision_is_not_an_assumption(use_kernel):
    # solve([a]) leaves the search decision -b (saved phase: false) on the
    # trail, one level above the assumption level of a.  The next call
    # assumes b as well: its level must be re-opened for b, not read off
    # the leftover decision, or b would look false and the answer UNSAT.
    solver = SatSolver(use_kernel=use_kernel)
    a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
    solver.add_clause([-b, -c])
    assert solver.solve(assumptions=[a]) is SatResult.SAT
    assert solver.value(b) is False
    assert solver.solve(assumptions=[a, b]) is SatResult.SAT
    assert solver.value(a) is True and solver.value(b) is True
    assert solver.value(c) is False


@pytest.mark.parametrize("use_kernel", _kernel_modes())
def test_blocking_clauses_enumerate_every_model_once(use_kernel):
    rng = random.Random(404)
    num_vars = 9
    clauses = [
        [rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(3)]
        for _ in range(14)
    ]
    solver = SatSolver(use_kernel=use_kernel)
    solver.ensure_vars(num_vars)
    solver.add_clauses(clauses)
    selector = solver.new_var()
    models = set()
    while solver.solve(assumptions=[selector]) is SatResult.SAT:
        model = tuple(solver.value(v) for v in range(1, num_vars + 1))
        assert model not in models
        models.add(model)
        solver.add_clause(
            [-selector] + [-v if value else v for v, value in enumerate(model, 1)]
        )
    expected = 0
    for bits in range(1 << num_vars):
        values = [(bits >> i) & 1 == 1 for i in range(num_vars)]
        if all(
            any(values[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            expected += 1
    assert len(models) == expected
    # Retiring the scope leaves the original formula, without its blocking
    # clauses in the database.
    problem = len(solver.problem_refs())
    solver.add_clause([-selector])
    solver.remove_satisfied()
    assert len(solver.problem_refs()) < problem
    assert solver.solve() is (SatResult.SAT if expected else SatResult.UNSAT)
    assert solver.arena_words == solver.arena_live_words() + 1
