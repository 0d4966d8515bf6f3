"""CDCL SAT core: unit tests plus brute-force fuzzing."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.sat import FALSE, TRUE, UNASSIGNED, Solver, SolverError


def make_solver(n):
    s = Solver()
    for _ in range(n):
        s.new_var()
    return s


def brute_force_sat(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses):
            return True
    return False


class TestBasics:
    def test_empty_formula_sat(self):
        assert make_solver(2).solve()

    def test_unit_clause(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.solve()
        assert s.value(1) == TRUE

    def test_contradiction(self):
        s = make_solver(1)
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve()

    def test_simple_implication_chain(self):
        s = make_solver(3)
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve()
        assert s.value(3) == TRUE

    def test_tautology_ignored(self):
        s = make_solver(1)
        s.add_clause([1, -1])
        assert s.solve()

    def test_duplicate_literals_collapsed(self):
        s = make_solver(2)
        s.add_clause([1, 1, 2])
        assert s.solve()

    def test_out_of_range_literal(self):
        s = make_solver(1)
        with pytest.raises(SolverError):
            s.add_clause([5])

    def test_pigeonhole_2_into_1_unsat(self):
        # two pigeons, one hole
        s = make_solver(2)
        s.add_clause([1])
        s.add_clause([2])
        s.add_clause([-1, -2])
        assert not s.solve()

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        s = make_solver(3)
        for c in clauses:
            s.add_clause(c)
        assert s.solve()
        model = s.model()
        for c in clauses:
            assert any((lit > 0) == (model[abs(lit)] == TRUE) for lit in c)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = make_solver(2)
        s.add_clause([1, 2])
        assert s.solve([-1])
        assert s.value(2) == TRUE

    def test_unsat_under_assumptions_recoverable(self):
        s = make_solver(2)
        s.add_clause([1, 2])
        s.add_clause([-1, -2])
        assert not s.solve([1, 2])
        assert s.solve()  # formula itself still satisfiable
        assert s.solve([1])
        assert s.value(2) == FALSE

    def test_conflicting_assumption_with_unit(self):
        s = make_solver(1)
        s.add_clause([1])
        assert not s.solve([-1])
        assert s.solve([1])


class TestIncremental:
    def test_add_clause_between_solves(self):
        s = make_solver(2)
        s.add_clause([1, 2])
        assert s.solve()
        s.add_clause([-1])
        s.add_clause([-2])
        assert not s.solve()

    def test_stats_populated(self):
        s = make_solver(3)
        s.add_clause([1, 2, 3])
        s.solve()
        stats = s.stats()
        assert stats["vars"] == 3
        assert stats["clauses"] >= 1


class TestFuzzVsBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(3, 9)
            m = rng.randint(2, 40)
            clauses = [
                [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
                for _ in range(m)
            ]
            s = make_solver(n)
            ok = all(s.add_clause(c) for c in clauses)
            got = ok and s.solve()
            assert got == brute_force_sat(n, clauses)

    def test_random_with_assumptions(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(3, 7)
            m = rng.randint(2, 20)
            clauses = [
                [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
                for _ in range(m)
            ]
            assumptions = [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), 2)]
            s = make_solver(n)
            ok = all(s.add_clause(c) for c in clauses)
            expected = brute_force_sat(
                n, clauses + [[lit] for lit in assumptions]
            )
            got = ok and s.solve(assumptions)
            assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_cnf(data):
    n = data.draw(st.integers(2, 7))
    clauses = data.draw(
        st.lists(
            st.lists(
                st.integers(1, n).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=25,
        )
    )
    s = make_solver(n)
    ok = all(s.add_clause(c) for c in clauses)
    assert (ok and s.solve()) == brute_force_sat(n, clauses)


# ----------------------------------------------------------------------
# circular replacement-watch search over long clauses
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _truth_tables(n):
    """Per variable, its truth table over all 2**n assignments as one
    big-int bitmask: bit ``a`` is set iff the variable is true in
    assignment ``a``.  A CNF is then checked exhaustively with a few
    big-int ANDs and ORs per clause."""
    size = 1 << n
    everything = (1 << size) - 1
    tables = [0]
    for i in range(n):
        period = 1 << i
        mask = ((1 << period) - 1) << period  # one true block per 2*period
        width = 2 * period
        while width < size:
            mask |= mask << width
            width *= 2
        tables.append(mask)
    return tables, everything


def _lit_table(tables, everything, lit):
    return tables[lit] if lit > 0 else everything ^ tables[-lit]


def _clause_table(tables, everything, clause):
    out = 0
    for lit in clause:
        out |= _lit_table(tables, everything, lit)
    return out


def _long_clause_cnf(rng, n, tables, everything):
    """Random 3- to 5-literal clauses plus long clauses of 20+ literals.

    Each long-clause literal takes, with probability 0.85, the sign that
    is false in most models of the short clauses, so long clauses prune
    models and take part in propagation and conflicts instead of being
    satisfied by almost every assignment."""
    clauses = [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), width)]
        for width in [rng.choice([3, 3, 4, 5]) for _ in range(4 * n)]
    ]
    models = everything
    for c in clauses:
        models &= _clause_table(tables, everything, c)
    for _ in range(rng.randint(4, 10)):
        long_clause = []
        for v in rng.sample(range(1, n + 1), rng.randint(20, n)):
            mostly_true = 2 * (models & tables[v]).bit_count() > models.bit_count()
            lit = -v if mostly_true else v
            long_clause.append(lit if rng.random() < 0.85 else -lit)
        clauses.append(long_clause)
    rng.shuffle(clauses)
    return clauses


class TestCircularWatchSearch:
    """The replacement-watch search resumes at a per-clause position and
    wraps around; the position is only a hint, so every answer must match
    exhaustive enumeration whatever the hint says."""

    N = 20

    def _assumptions(self, rng, clauses):
        """Random literals, or the negations of part of one long clause:
        falsifying its literals in a different order each call makes
        later searches start past literals that are false now and wrap
        around to ones that are not."""
        long_clauses = [c for c in clauses if len(c) >= 20]
        if long_clauses and rng.random() < 0.7:
            clause = rng.choice(long_clauses)
            width = rng.randint(len(clause) // 2, len(clause) - 1)
            return [-lit for lit in rng.sample(clause, width)]
        return [
            rng.choice([-1, 1]) * v
            for v in rng.sample(range(1, self.N + 1), rng.randint(0, 4))
        ]

    def _check_session(self, rng, corrupt=None):
        """Several solves on one solver, with assumptions and clauses
        added between calls, so saved positions outlive a call."""
        n = self.N
        tables, everything = _truth_tables(n)
        clauses = _long_clause_cnf(rng, n, tables, everything)
        s = make_solver(n)
        ok = all(s.add_clause(c) for c in clauses)
        formula = everything
        for c in clauses:
            formula &= _clause_table(tables, everything, c)
        for _ in range(16):
            if corrupt is not None:
                corrupt(s, rng)
            assumptions = self._assumptions(rng, clauses)
            expected = formula
            for lit in assumptions:
                expected &= _lit_table(tables, everything, lit)
            got = ok and s.solve(assumptions)
            assert got == (expected != 0)
            if got:
                model = s.model()
                for c in clauses:
                    assert any((model[abs(l)] == TRUE) == (l > 0) for l in c)
                for lit in assumptions:
                    assert (model[abs(lit)] == TRUE) == (lit > 0)
            extra = _long_clause_cnf(rng, n, tables, everything)[: rng.randint(1, 4)]
            for c in extra:
                ok = s.add_clause(c) and ok
                formula &= _clause_table(tables, everything, c)
            clauses.extend(extra)
        return s

    @pytest.mark.parametrize("seed", range(6))
    def test_long_clauses_match_brute_force(self, seed):
        rng = random.Random(seed)
        s = self._check_session(rng)
        assert s.conflicts > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_stale_or_out_of_range_hints_are_harmless(self, seed):
        def corrupt(s, rng):
            # a stored clause's last slot is its search start
            for clause in s.clauses + s.learned:
                size = len(clause) - 1
                clause[-1] = rng.choice(
                    [-7, 0, 1, 2, size - 1, size - 1, size, size + 5,
                     rng.randrange(2, max(3, size))]
                )

        self._check_session(random.Random(100 + seed), corrupt=corrupt)

    def test_search_resumes_at_the_saved_position(self):
        s = make_solver(30)
        s.add_clause(list(range(1, 31)))
        clause = s.clauses[0]
        clause[-1] = 20
        s.trail_lim.append(len(s.trail))
        s._enqueue(-clause[1], None)
        assert s._propagate() is None
        # positions 2..19 hold unassigned literals too, but the search
        # starts at the saved position
        assert clause[1] == 21
        assert clause[-1] == 20

    def test_search_wraps_around_past_the_end(self):
        s = make_solver(30)
        s.add_clause(list(range(1, 31)))
        clause = s.clauses[0]
        clause[-1] = 25
        s.trail_lim.append(len(s.trail))
        for lit in clause[25:-1]:
            s._enqueue(-lit, None)
        s._enqueue(-clause[1], None)
        assert s._propagate() is None
        assert clause[1] == 3  # wrapped to position 2
        assert clause[-1] == 2
