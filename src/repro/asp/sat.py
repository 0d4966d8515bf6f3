"""A CDCL SAT solver: the propositional core under the ASP engine.

Features: two-watched-literal propagation, first-UIP conflict analysis
with clause learning, EVSIDS branching, phase saving, Luby restarts,
solving under assumptions, and incremental clause addition between
``solve()`` calls (used for ASSAT loop formulas and optimization bounds).

Literals are non-zero ints (DIMACS convention): ``v`` is the positive
literal of variable ``v``, ``-v`` the negative one.  Variables are
allocated through :meth:`Solver.new_var`.

A stored clause of ``n`` literals is a list of ``n + 1`` ints: the two
watched literals, the other ``n - 2``, then one trailing slot holding
the position where the clause's last replacement watch was found.  The
next replacement search starts there and wraps around (Gent, "Optimal
Implementation of Watched Literals and More General Techniques", JAIR
2013), so repeated searches of one long learned clause along a descent
read each literal about once instead of rescanning from position 2.
The slot is only a hint: every start gives a complete search, and an
out-of-range value falls back to position 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["Solver", "SolverError", "TRUE", "FALSE", "UNASSIGNED"]

TRUE = 1
FALSE = -1
UNASSIGNED = 0


class SolverError(RuntimeError):
    """Raised on API misuse (e.g. literals for unallocated variables)."""


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        k -= 1
        i -= (1 << k) - 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


class _VarOrder:
    """MiniSat-style indexed binary max-heap over variable activities.

    Each variable appears at most once; ``bump`` percolates in place
    (decrease-key), so decisions pop in O(log n) with no stale entries.
    """

    __slots__ = ("activity", "heap", "position")

    def __init__(self, activity: List[float]):
        self.activity = activity  # shared with the solver
        self.heap: List[int] = []
        self.position: List[int] = [-1]  # var → heap index, -1 = absent

    def register(self, var: int) -> None:
        self.position.append(-1)
        self.insert(var)

    def __contains__(self, var: int) -> bool:
        return self.position[var] >= 0

    def insert(self, var: int) -> None:
        if self.position[var] >= 0:
            return
        self.heap.append(var)
        self.position[var] = len(self.heap) - 1
        self._up(len(self.heap) - 1)

    def bump(self, var: int) -> None:
        pos = self.position[var]
        if pos >= 0:
            self._up(pos)

    def pop(self) -> Optional[int]:
        if not self.heap:
            return None
        top = self.heap[0]
        last = self.heap.pop()
        self.position[top] = -1
        if self.heap:
            self.heap[0] = last
            self.position[last] = 0
            self._down(0)
        return top

    def _up(self, i: int) -> None:
        heap, position, activity = self.heap, self.position, self.activity
        var = heap[i]
        act = activity[var]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            if activity[pvar] >= act:
                break
            heap[i] = pvar
            position[pvar] = i
            i = parent
        heap[i] = var
        position[var] = i

    def _down(self, i: int) -> None:
        heap, position, activity = self.heap, self.position, self.activity
        var = heap[i]
        act = activity[var]
        size = len(heap)
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            right = left + 1
            child = (
                right
                if right < size and activity[heap[right]] > activity[heap[left]]
                else left
            )
            cvar = heap[child]
            if act >= activity[cvar]:
                break
            heap[i] = cvar
            position[cvar] = i
            i = child
        heap[i] = var
        position[var] = i


class Solver:
    """CDCL SAT solver with incremental clause addition."""

    def __init__(self):
        self.num_vars = 0
        #: assignment per variable index (1-based): TRUE/FALSE/UNASSIGNED
        self.assign: List[int] = [UNASSIGNED]
        self.level: List[int] = [0]
        self.reason: List[Optional[list]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        #: watch lists indexed by literal key (2*v for v, 2*v+1 for -v)
        self.watches: List[List[list]] = [[], []]
        self.clauses: List[list] = []
        self.learned: List[list] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True  # False once a top-level conflict is found
        self.calls = 0  # solve() invocations
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        #: VSIDS decision order (indexed heap, MiniSat's order_heap)
        self._order = _VarOrder(self.activity)

    # ------------------------------------------------------------------
    # variables and clauses
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.watches.append([])  # 2*v
        self.watches.append([])  # 2*v + 1
        self._order.register(self.num_vars)
        return self.num_vars

    @staticmethod
    def _watch_key(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def value(self, lit: int) -> int:
        """TRUE/FALSE/UNASSIGNED value of a literal under current trail."""
        v = self.assign[abs(lit)]
        if v == UNASSIGNED:
            return UNASSIGNED
        return v if lit > 0 else -v

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if it makes the formula trivially
        UNSAT.  Safe to call between solve() calls (state is reset to
        decision level 0 first)."""
        if not self.ok:
            return False
        if self.trail_lim:
            self._cancel_until(0)
        seen = set()
        clause: List[int] = []
        for lit in lits:
            var = abs(lit)
            if var == 0 or var > self.num_vars:
                raise SolverError(f"literal {lit} out of range")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = self.value(lit)
            if value == TRUE:
                return True  # already satisfied at level 0
            if value == FALSE:
                continue  # falsified at level 0 — drop literal
            clause.append(lit)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        clause.append(2)  # replacement-search start
        self.clauses.append(clause)
        self._attach(clause)
        return True

    def _attach(self, clause: list) -> None:
        self.watches[self._watch_key(clause[0])].append(clause)
        self.watches[self._watch_key(clause[1])].append(clause)

    # ------------------------------------------------------------------
    # trail management
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: Optional[list]) -> bool:
        value = self.value(lit)
        if value == TRUE:
            return True
        if value == FALSE:
            return False
        var = abs(lit)
        self.assign[var] = TRUE if lit > 0 else FALSE
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)
        return True

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        boundary = self.trail_lim[target_level]
        for lit in reversed(self.trail[boundary:]):
            var = abs(lit)
            self.assign[var] = UNASSIGNED
            self.reason[var] = None
            self._order.insert(var)
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.qhead = min(self.qhead, len(self.trail))

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[list]:
        """Unit propagation; returns a conflicting clause or None.

        The inner loop is the solver's hottest path: literal values are
        read straight out of the assignment array instead of through
        :meth:`value`, and unit enqueues are inlined.
        """
        assign = self.assign
        watches = self.watches
        trail = self.trail
        level = len(self.trail_lim)
        levels = self.level
        reasons = self.reason
        phases = self.phase
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = -lit
            watch_list = watches[2 * false_lit if false_lit > 0 else -2 * false_lit + 1]
            i = 0
            j = 0
            n = len(watch_list)
            while i < n:
                clause = watch_list[i]
                i += 1
                # Normalize: watched literals live in positions 0 and 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_val = assign[first] if first > 0 else -assign[-first]
                if first_val == TRUE:
                    watch_list[j] = clause
                    j += 1
                    continue
                # Look for a new literal to watch, starting where this
                # clause's last replacement was found and wrapping around.
                size = len(clause) - 1
                start = clause[size]
                if not 2 <= start < size:
                    start = 2  # only a hint: any start searches them all
                for k in range(start, size):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != FALSE:
                        break
                else:
                    for k in range(2, start):
                        other = clause[k]
                        if (assign[other] if other > 0 else -assign[-other]) != FALSE:
                            break
                    else:
                        k = 0
                if k:
                    clause[1] = other
                    clause[k] = false_lit
                    clause[size] = k
                    watches[2 * other if other > 0 else -2 * other + 1].append(clause)
                    continue
                # Clause is unit or conflicting.
                watch_list[j] = clause
                j += 1
                if first_val == FALSE:
                    # conflict: keep remaining watches, restore list
                    while i < n:
                        watch_list[j] = watch_list[i]
                        j += 1
                        i += 1
                    del watch_list[j:]
                    return clause
                # inline enqueue of the unit literal
                var = first if first > 0 else -first
                assign[var] = TRUE if first > 0 else FALSE
                levels[var] = level
                reasons[var] = clause
                phases[var] = first > 0
                trail.append(first)
            del watch_list[j:]
        return None

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        self._order.bump(var)
        if self.activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            # uniform rescale preserves the heap order — no rebuild

    def _analyze(self, conflict: list) -> tuple:
        """Derive a 1UIP learned clause; returns (clause, backjump_level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        reason: Optional[list] = conflict
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            assert reason is not None
            for q in reason[:-1]:  # the last slot is the search start
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # find next literal on the trail at the current level
            while True:
                lit = self.trail[index]
                index -= 1
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            reason = self.reason[abs(lit)]
        learned[0] = -lit
        # minimal backjump level = max level among the other literals
        if len(learned) == 1:
            backjump = 0
        else:
            max_i = 1
            for i in range(2, len(learned)):
                if self.level[abs(learned[i])] > self.level[abs(learned[max_i])]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = self.level[abs(learned[1])]
        return learned, backjump

    # ------------------------------------------------------------------
    # branching
    # ------------------------------------------------------------------
    def _decide(self) -> Optional[int]:
        order = self._order
        assign = self.assign
        while True:
            var = order.pop()
            if var is None:
                return None
            if assign[var] == UNASSIGNED:
                return var if self.phase[var] else -var

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Search for a model; returns True (SAT) or False (UNSAT).

        Under ``assumptions``, False means UNSAT *under those
        assumptions*; the solver remains usable afterwards.
        """
        self.calls += 1
        if not self.ok:
            return False
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            return False

        restart_count = 0
        conflict_budget = 100 * _luby(restart_count + 1)
        conflicts_here = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                if len(self.trail_lim) <= len(assumptions):
                    # Conflict inside the assumption prefix → UNSAT under
                    # assumptions, but the formula itself may be fine.
                    # (Only exact when each assumption got its own level,
                    # which _assume ensures.)
                    self._cancel_until(0)
                    return False
                learned, backjump = self._analyze(conflict)
                backjump = max(backjump, self._assumption_level(assumptions))
                self._cancel_until(backjump)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self.ok = False
                        return False
                else:
                    learned.append(2)  # replacement-search start
                    self.learned.append(learned)
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                self.var_inc /= self.var_decay
                continue

            if conflicts_here >= conflict_budget:
                restart_count += 1
                conflict_budget = 100 * _luby(restart_count + 1)
                conflicts_here = 0
                self._cancel_until(self._assumption_level(assumptions))
                continue

            # Plant assumptions one level at a time.
            planted = len(self.trail_lim)
            if planted < len(assumptions):
                lit = assumptions[planted]
                value = self.value(lit)
                if value == FALSE:
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                if value == UNASSIGNED:
                    self._enqueue(lit, None)
                continue

            decision = self._decide()
            if decision is None:
                return True  # all variables assigned, no conflict
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None)

    def _assumption_level(self, assumptions: Sequence[int]) -> int:
        return min(len(assumptions), len(self.trail_lim))

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------
    def model(self) -> List[int]:
        """The satisfying assignment after a True solve(): list indexed by
        variable, entries TRUE/FALSE."""
        return list(self.assign)

    def stats(self) -> Dict[str, int]:
        return {
            "vars": self.num_vars,
            "clauses": len(self.clauses),
            "learned": len(self.learned),
            "calls": self.calls,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
        }
