"""Optimization: #minimize with weights and lexicographic priorities."""

import itertools
import math
import random

import pytest

from repro.asp.api import Control


def solve(text):
    ctl = Control()
    ctl.add(text)
    return ctl.solve()


class TestSingleLevel:
    def test_minimize_picks_cheapest(self):
        result = solve(
            """
            1 { pick(1) ; pick(2) ; pick(3) } 1.
            cost(1, 10). cost(2, 5). cost(3, 7).
            #minimize { C, X : pick(X), cost(X, C) }.
            """
        )
        assert result.satisfiable
        picks = result.model.by_predicate("pick")
        assert picks[0].args[0].value == 2
        assert result.cost[0] == 5

    def test_zero_cost_possible(self):
        result = solve("{ a }. #minimize { 5 : a }.")
        assert result.cost[0] == 0

    def test_forced_cost(self):
        result = solve("a. #minimize { 5 : a }.")
        assert result.cost[0] == 5

    def test_weights_sum_over_distinct_terms(self):
        result = solve(
            """
            a. b.
            #minimize { 3, x : a ; 4, y : b }.
            """
        )
        assert result.cost[0] == 7

    def test_identical_terms_counted_once(self):
        # clingo set semantics: same (weight, terms) tuple counts once
        result = solve("a. b. #minimize { 3, same : a ; 3, same : b }.")
        assert result.cost[0] == 3

    def test_minimize_with_constraint_interaction(self):
        result = solve(
            """
            1 { pick(1) ; pick(2) } 1.
            :- pick(2).
            cost(1, 10). cost(2, 1).
            #minimize { C, X : pick(X), cost(X, C) }.
            """
        )
        # the cheap option is forbidden; optimum is 10
        assert result.cost[0] == 10


class TestLexicographic:
    def test_higher_priority_dominates(self):
        result = solve(
            """
            1 { pick(1) ; pick(2) } 1.
            % pick(1): high=0 low=100 ; pick(2): high=1 low=0
            #minimize { 1@10 : pick(2) }.
            #minimize { 100@1 : pick(1) }.
            """
        )
        picks = result.model.by_predicate("pick")
        assert picks[0].args[0].value == 1, "priority 10 beats any weight at 1"
        assert result.cost[10] == 0
        assert result.cost[1] == 100

    def test_tie_at_high_broken_at_low(self):
        result = solve(
            """
            1 { pick(1) ; pick(2) } 1.
            common :- pick(1). common :- pick(2).
            #minimize { 1@10 : common }.
            #minimize { 1@1 : pick(1) }.
            """
        )
        assert result.model.by_predicate("pick")[0].args[0].value == 2

    def test_three_levels(self):
        result = solve(
            """
            1 { p(1) ; p(2) ; p(3) ; p(4) } 1.
            #minimize { 1@30 : p(4) }.
            #minimize { 1@20 : p(3) }.
            #minimize { 1@10 : p(2) }.
            """
        )
        assert result.model.by_predicate("p")[0].args[0].value == 1


class TestBruteForceComparison:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_weighted_selection(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        weights = {i: rng.randint(1, 20) for i in range(1, n + 1)}
        text = [
            f"{k} {{ {' ; '.join(f'pick({i})' for i in range(1, n + 1))} }} {k}."
        ]
        for i, w in weights.items():
            text.append(f"cost({i}, {w}).")
        text.append("#minimize { C, X : pick(X), cost(X, C) }.")
        result = solve("\n".join(text))
        assert result.satisfiable
        best = min(
            sum(weights[i] for i in combo)
            for combo in itertools.combinations(range(1, n + 1), k)
        )
        assert result.cost[0] == best

    @pytest.mark.parametrize("seed", range(5))
    def test_random_two_priority(self, seed):
        rng = random.Random(100 + seed)
        n = 4
        hi = {i: rng.randint(0, 3) for i in range(1, n + 1)}
        lo = {i: rng.randint(0, 9) for i in range(1, n + 1)}
        text = [f"1 {{ {' ; '.join(f'pick({i})' for i in range(1, n + 1))} }} 1."]
        for i in range(1, n + 1):
            if hi[i]:
                text.append(f"#minimize {{ {hi[i]}@2, choice : pick({i}) }}.")
            if lo[i]:
                text.append(f"#minimize {{ {lo[i]}@1, choice : pick({i}) }}.")
        result = solve("\n".join(text))
        best = min(range(1, n + 1), key=lambda i: (hi[i], lo[i]))
        assert result.cost.get(2, 0) == hi[best]
        assert result.cost.get(1, 0) == lo[best]


class TestControlApi:
    def test_on_model_called(self):
        seen = []
        ctl = Control()
        ctl.add("1 { p(1) ; p(2) } 1. #minimize { 1 : p(2) }.")
        ctl.solve(on_model=seen.append)
        assert seen, "intermediate models reported"

    def test_unsat_result(self):
        result = solve("a. :- a.")
        assert not result.satisfiable
        assert result.model is None

    def test_stats_present(self):
        result = solve("a.")
        assert "solve_time" in result.stats
        assert "ground_time" in result.stats

    def test_model_helpers(self):
        result = solve("p(1). p(2). q.")
        assert len(result.model.by_predicate("p")) == 2
        assert len(result.model) == 3

    def test_add_facts_programmatically(self):
        from repro.asp.syntax import Atom, String

        ctl = Control()
        ctl.add_fact(Atom("p", (String("x"),)))
        ctl.add("q :- p(X).")
        result = ctl.solve()
        assert result.model.by_predicate("q")


def _lex_program(rng, levels, scales):
    """A random program: pick one or two of ``n`` atoms ``p(i)``, three
    free atoms ``q(i)``, one constraint, and one weighted minimize
    statement per level.  Returns ``(text, atoms, n, weights)`` where
    ``weights[level][atom]`` is that atom's weight at the level."""
    n = rng.randint(3, 5)
    atoms = [f"p({i})" for i in range(n)] + [f"q({i})" for i in range(3)]
    text = [f"1 {{ {' ; '.join(atoms[:n])} }} 2."]
    text += [f"{{ {atom} }}." for atom in atoms[n:]]
    text.append(f":- {atoms[n]}, {atoms[0]}.")
    weights = {}
    for level, scale in zip(levels, scales):
        weights[level] = {
            atom: scale * rng.randint(0, 4) for atom in atoms if rng.random() < 0.7
        }
        elements = " ; ".join(
            f"{w}@{level}, {atom} : {atom}" for atom, w in weights[level].items()
        )
        if elements:
            text.append(f"#minimize {{ {elements} }}.")
    return "\n".join(text), atoms, n, weights


def _brute_force(atoms, n, weights, levels):
    """Lexicographic minimum over every assignment the program admits."""
    best = None
    for bits in itertools.product((False, True), repeat=len(atoms)):
        true = {atom for atom, bit in zip(atoms, bits) if bit}
        if not 1 <= sum(bits[:n]) <= 2 or {atoms[n], atoms[0]} <= true:
            continue
        cost = tuple(
            sum(w for atom, w in weights[level].items() if atom in true)
            for level in levels
        )
        best = cost if best is None or cost < best else best
    return best


class TestIncrementalLexicographic:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_with_shared_weight_factors(self, seed):
        rng = random.Random(7000 + seed)
        levels = sorted(rng.sample(range(1, 60), rng.randint(2, 3)), reverse=True)
        scales = [rng.choice((1, 3, 100)) for _ in levels]
        text, atoms, n, weights = _lex_program(rng, levels, scales)
        result = solve(text)
        assert result.satisfiable
        got = tuple(result.cost.get(level, 0) for level in levels)
        assert got == _brute_force(atoms, n, weights, levels)

    @pytest.mark.parametrize("seed", range(6))
    def test_returned_model_realizes_returned_cost(self, seed):
        rng = random.Random(8000 + seed)
        levels = [20, 10, 1]
        text, atoms, n, weights = _lex_program(rng, levels, [100, 7, 1])
        result = solve(text)
        true = {str(atom) for atom in result.model}
        for level in levels:
            realized = sum(w for atom, w in weights[level].items() if atom in true)
            assert result.cost.get(level, 0) == realized

    @pytest.mark.parametrize("least", [1, 3, 5, 10])
    def test_uniform_weight_level_probes_only_possible_costs(self, least):
        # weight 100 on each of 10 choices: only 11 costs can occur, so
        # the first solve plus a binary descent over 0..10 builds decide
        # the level — without scaling, proving optimality walks 0..100k
        picks = " ; ".join(f"b({i})" for i in range(10))
        result = solve(f"{least} {{ {picks} }} 10.\n#minimize {{ 100, X : b(X) }}.")
        assert result.cost[0] == 100 * least
        assert result.stats["sat_calls"] <= math.ceil(math.log2(11)) + 1
        assert result.stats["unsat_probes"] >= 1
