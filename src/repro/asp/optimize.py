"""Lexicographic ``#minimize`` optimization over stable models.

clingo semantics: higher ``@priority`` levels dominate; within a level
the objective is the sum of weights of satisfied minimize elements.

Strategy: model-guided bound strengthening, incremental on one solver.
For each priority from highest to lowest:

1. divide the level's weights by their GCD, so every bound probed is a
   cost some model can have (all-100 weights probe 0, 1, 2, ... builds);
2. build (once, with cross-bound node sharing) a pseudo-Boolean
   "budget" circuit whose root literal *assumes* ``Σ wᵢxᵢ ≤ k``;
3. bracketed descent between a proven floor and the incumbent's cost:
   a SAT probe replaces the incumbent (a snapshot of the solver's
   assignment), an UNSAT probe raises the floor;
4. once floor meets incumbent the optimum is proven: assert the
   budget root as a permanent unit clause, propagated once at decision
   level 0, and descend to the next level.

The incumbent snapshot is the answer: its costs are optimal at every
finished level, so no re-solve is needed to recover a model.

The PB circuit uses the standard BDD/DP decomposition memoized on
``(index, residual_budget)`` with budgets clamped to suffix sums, so
successive bounds share most of their structure.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .stable import StableModelFinder
from .syntax import Atom
from .translate import Translator

__all__ = ["Optimizer", "OptimizeResult"]


class OptimizeResult:
    """The outcome of an optimization run."""

    __slots__ = ("model", "cost", "models_seen")

    def __init__(
        self,
        model: Optional[Set[Atom]],
        cost: Dict[int, int],
        models_seen: int,
    ):
        self.model = model
        self.cost = cost
        self.models_seen = models_seen

    @property
    def satisfiable(self) -> bool:
        return self.model is not None


class _PBBudget:
    """Assumable pseudo-Boolean ``≤ k`` circuit for one objective level."""

    def __init__(self, translator: Translator, terms: Sequence[Tuple[int, int]]):
        self.solver = translator.solver
        # Normalize: drop zero weights, sort descending for better sharing.
        self.terms = sorted(
            ((w, v) for w, v in terms if w != 0), key=lambda t: -t[0]
        )
        if any(w < 0 for w, _ in self.terms):
            raise ValueError("negative minimize weights are not supported")
        self.suffix_sums: List[int] = [0] * (len(self.terms) + 1)
        for i in range(len(self.terms) - 1, -1, -1):
            self.suffix_sums[i] = self.suffix_sums[i + 1] + self.terms[i][0]
        self._nodes: Dict[Tuple[int, int], int] = {}
        self._const_true: Optional[int] = None

    def root(self, bound: int) -> Optional[int]:
        """A literal that, assumed true, enforces ``Σ ≤ bound``.

        Returns None when the bound is trivially satisfied (no
        assumption needed).
        """
        if bound >= self.suffix_sums[0]:
            return None
        return self._node(0, bound)

    def _node(self, i: int, budget: int) -> int:
        budget = min(budget, self.suffix_sums[i])  # clamp for sharing
        if budget < 0:
            return -self._true()  # impossible: assuming it forces UNSAT
        if budget == self.suffix_sums[i]:
            return self._true()
        key = (i, budget)
        cached = self._nodes.get(key)
        if cached is not None:
            return cached
        weight, x = self.terms[i]
        var = self.solver.new_var()
        hi = self._node(i + 1, budget - weight)  # x true: spend weight
        lo = self._node(i + 1, budget)  # x false
        # var ∧ x → hi ;  var ∧ ¬x → lo
        self.solver.add_clause([-var, -x, hi])
        self.solver.add_clause([-var, x, lo])
        self._nodes[key] = var
        return var

    def _true(self) -> int:
        if self._const_true is None:
            self._const_true = self.solver.new_var()
            self.solver.add_clause([self._const_true])
        return self._const_true


class Optimizer:
    """Runs lexicographic minimization on top of a StableModelFinder."""

    def __init__(self, translator: Translator):
        self.translator = translator
        self.finder = StableModelFinder(translator)
        #: bound probes proven UNSAT (each one raises a level's floor)
        self.unsat_probes = 0

    def optimize(self, on_model=None) -> OptimizeResult:
        solver = self.translator.solver
        objectives = self.translator.objectives
        best_model = self.finder.solve()
        if best_model is None:
            return OptimizeResult(None, {}, 0)
        best = solver.model()
        models_seen = 1
        if on_model is not None:
            on_model(best_model)

        priorities = sorted(objectives, reverse=True)
        for priority in priorities:
            terms = _scaled(objectives[priority])
            budget = _PBBudget(self.translator, terms)
            best_cost = _cost(best, terms)
            # Bracketed descent: probe the midpoint of [floor, best_cost).
            # A SAT probe may overshoot downward (the model's true cost
            # bounds it); an UNSAT probe raises the floor.  Converges in
            # O(log range) solves instead of one solve per cost step —
            # essential when an objective spans many values (e.g. 100
            # provider weights in the Figure-7 workload).
            floor = 0
            while best_cost > floor:
                probe = (floor + best_cost - 1) // 2
                candidate = self.finder.solve([budget.root(probe)])
                if candidate is None:
                    self.unsat_probes += 1
                    floor = probe + 1
                    continue
                models_seen += 1
                best_model, best = candidate, solver.model()
                best_cost = _cost(best, terms)
                assert best_cost <= probe, "PB bound failed to strengthen"
                if on_model is not None:
                    on_model(candidate)
            # Freeze this level at its optimum for every later solve.
            root = budget.root(best_cost)
            if root is not None:
                frozen = solver.add_clause([root])
                assert frozen, "optimum must remain satisfiable"

        cost = {p: _cost(best, objectives[p]) for p in priorities}
        return OptimizeResult(best_model, cost, models_seen)


def _scaled(terms: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The level's terms with weights divided by their GCD."""
    divisor = math.gcd(*(w for w, _ in terms)) or 1
    return [(w // divisor, var) for w, var in terms]


def _cost(assignment: List[int], terms: Sequence[Tuple[int, int]]) -> int:
    # Indicator variables are Tseitin bodies — read them from the
    # solver assignment snapshot rather than from the atom set.
    return sum(w for w, var in terms if assignment[var] == 1)
