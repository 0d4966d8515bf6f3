"""Translate a ground ASP program to CNF via Clark completion.

Encoding summary (standard ASSAT-style reduction):

* every distinct ground atom gets a SAT variable;
* every rule body gets a Tseitin variable ``b ↔ conj(body)``;
* a normal rule contributes ``b → head``;
* the *completion* adds, per atom, ``head → ∨ supports`` where supports
  are the body variables of rules deriving it plus, for choice atoms,
  per-element support variables ``s ↔ choice_body ∧ element_condition``
  (choice atoms get only the "needs support" direction — they remain
  free to be false);
* choice cardinality bounds become unary-counter constraints over
  element-active variables, gated by the choice body;
* integrity constraints become single clauses.

Models of this CNF are exactly the *supported* models of the program;
:mod:`repro.asp.stable` then filters/repairs to *stable* models with
lazy loop formulas.  The translator records, per atom, its support
variables together with the positive atoms each support depends on — the
data needed to build loop formulas.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .ground import GroundChoice, GroundProgram, GroundRule
from .sat import Solver
from .syntax import Atom

__all__ = ["Translator", "Support"]


class Support:
    """One way an atom can be derived: a SAT variable that, when true,
    supports the atom, plus the positive atoms that support depends on
    (needed for loop-formula externality checks)."""

    __slots__ = ("var", "pos_atoms")

    def __init__(self, var: int, pos_atoms: FrozenSet[Atom]):
        self.var = var
        self.pos_atoms = pos_atoms


class Translator:
    """Builds the CNF for a ground program inside a fresh Solver."""

    def __init__(self, ground_program: GroundProgram):
        self.program = ground_program
        self.solver = Solver()
        self.atom_var: Dict[Atom, int] = {}
        self.var_atom: Dict[int, Atom] = {}
        #: fact atoms are compile-time TRUE constants — no SAT variable
        self.facts: set = {
            r.head
            for r in ground_program.rules
            if r.head is not None and not r.pos and not r.neg
        }
        #: per-atom derivation supports (for completion + loop formulas)
        self.supports: Dict[Atom, List[Support]] = {}
        #: atoms appearing in some choice head (their truth is a choice)
        self.choice_atoms: set = set()
        #: minimize structure: priority -> list of (weight, indicator var)
        self.objectives: Dict[int, List[Tuple[int, int]]] = {}
        #: true constant variable (always assigned TRUE)
        self._true_var: Optional[int] = None
        self._body_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        self._build()

    # ------------------------------------------------------------------
    # variable helpers
    # ------------------------------------------------------------------
    def var_for(self, atom: Atom) -> int:
        var = self.atom_var.get(atom)
        if var is None:
            if atom in self.facts:
                # facts share the single TRUE constant; clauses they
                # appear in are simplified away at level 0
                var = self.true_var()
            else:
                var = self.solver.new_var()
                self.var_atom[var] = atom
            self.atom_var[atom] = var
        return var

    def true_var(self) -> int:
        if self._true_var is None:
            self._true_var = self.solver.new_var()
            self.solver.add_clause([self._true_var])
        return self._true_var

    def body_var(self, pos: Sequence[Atom], neg: Sequence[Atom]) -> int:
        """Tseitin variable for ``conj(pos) ∧ conj(¬neg)``, cached."""
        pos_vars = tuple(sorted(self.var_for(a) for a in pos))
        neg_vars = tuple(sorted(self.var_for(a) for a in neg))
        key = (pos_vars, neg_vars)
        cached = self._body_cache.get(key)
        if cached is not None:
            return cached
        if not pos_vars and not neg_vars:
            var = self.true_var()
        else:
            lits = [v for v in pos_vars] + [-v for v in neg_vars]
            if len(lits) == 1:
                var = lits[0] if lits[0] > 0 else None
                if var is None:
                    # single negative literal: need a proper alias var
                    var = self.solver.new_var()
                    self.solver.add_clause([-var, lits[0]])
                    self.solver.add_clause([var, -lits[0]])
            else:
                var = self.solver.new_var()
                for lit in lits:
                    self.solver.add_clause([-var, lit])
                self.solver.add_clause([var] + [-lit for lit in lits])
        self._body_cache[key] = var
        return var

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        # Pass 1: create atom variables for everything mentioned, so the
        # completion's "no support → false" covers body-only atoms too.
        for rule in self.program.rules:
            if rule.head is not None:
                self.var_for(rule.head)
            for a in rule.pos:
                self.var_for(a)
            for a in rule.neg:
                self.var_for(a)
        for choice in self.program.choices:
            for a in choice.pos:
                self.var_for(a)
            for a in choice.neg:
                self.var_for(a)
            for element in choice.elements:
                self.var_for(element.atom)
                for a in element.cond_pos:
                    self.var_for(a)
                for a in element.cond_neg:
                    self.var_for(a)
        for melem in self.program.minimizes:
            for a in melem.pos:
                self.var_for(a)
            for a in melem.neg:
                self.var_for(a)

        # Pass 2: rules.
        for rule in self.program.rules:
            self._encode_rule(rule)
        for choice in self.program.choices:
            self._encode_choice(choice)

        # Pass 3: completion — every atom needs some support.
        for atom, var in self.atom_var.items():
            if var == self._true_var:
                continue
            supports = self.supports.get(atom, ())
            clause = [-var] + [s.var for s in supports]
            self.solver.add_clause(clause)

        # Pass 4: objectives.
        self._encode_minimizes()

    def _add_support(self, atom: Atom, var: int, pos_atoms) -> None:
        self.supports.setdefault(atom, []).append(
            Support(var, frozenset(pos_atoms))
        )

    def _encode_rule(self, rule: GroundRule) -> None:
        if rule.head is not None and rule.head in self.facts:
            self.var_for(rule.head)  # ensure it decodes as true
            return  # a fact needs no clauses, body, or support entries
        if rule.head is None:
            # integrity constraint: ¬(pos ∧ ¬neg)
            clause = [-self.var_for(a) for a in rule.pos] + [
                self.var_for(a) for a in rule.neg
            ]
            self.solver.add_clause(clause)
            return
        head_var = self.var_for(rule.head)
        body = self.body_var(rule.pos, rule.neg)
        self.solver.add_clause([-body, head_var])
        self._add_support(rule.head, body, rule.pos)

    def _encode_choice(self, choice: GroundChoice) -> None:
        body = self.body_var(choice.pos, choice.neg)
        active_vars: List[int] = []
        for element in choice.elements:
            atom_var = self.var_for(element.atom)
            self.choice_atoms.add(element.atom)
            if element.cond_pos or element.cond_neg:
                cond = self.body_var(element.cond_pos, element.cond_neg)
                support = self.solver.new_var()
                # support ↔ body ∧ cond
                self.solver.add_clause([-support, body])
                self.solver.add_clause([-support, cond])
                self.solver.add_clause([support, -body, -cond])
                pos_atoms = set(choice.pos) | set(element.cond_pos)
            else:
                support = body
                pos_atoms = set(choice.pos)
            self._add_support(element.atom, support, pos_atoms)
            # Count an element as active iff its atom is true AND its
            # support condition holds (clingo counts set members).
            if support == self.true_var():
                active_vars.append(atom_var)
            else:
                active = self.solver.new_var()
                self.solver.add_clause([-active, atom_var])
                self.solver.add_clause([-active, support])
                self.solver.add_clause([active, -atom_var, -support])
                active_vars.append(active)

        lower = choice.lower
        upper = choice.upper
        n = len(active_vars)
        if upper is not None and upper < n:
            self._at_most_k(active_vars, upper, gate=body)
        if lower is not None and lower > 0:
            if lower > n:
                # Impossible to meet the bound: the body must be false.
                self.solver.add_clause([-body])
            elif lower == 1:
                self.solver.add_clause([-body] + active_vars)
            else:
                self._at_least_k(active_vars, lower, gate=body)

    # ------------------------------------------------------------------
    # cardinality constraints (sequential unary counters)
    # ------------------------------------------------------------------
    def _at_most_k(self, xs: List[int], k: int, gate: int) -> None:
        """Under ``gate``, at most ``k`` of ``xs`` are true."""
        if k == 1:
            if len(xs) <= 12:
                for i in range(len(xs)):
                    for j in range(i + 1, len(xs)):
                        self.solver.add_clause([-gate, -xs[i], -xs[j]])
                return
        # registers r[j] = "at least j+1 of the inputs seen so far"
        registers: List[int] = []
        for x in xs:
            new_regs: List[int] = []
            width = min(len(registers) + 1, k + 1)
            for j in range(width):
                r = self.solver.new_var()
                # r_j ← prev_j  (count persists)
                if j < len(registers):
                    self.solver.add_clause([-registers[j], r])
                # r_j ← prev_{j-1} ∧ x   (count increments)
                if j == 0:
                    self.solver.add_clause([-x, r])
                elif j - 1 < len(registers):
                    self.solver.add_clause([-registers[j - 1], -x, r])
                new_regs.append(r)
            registers = new_regs
            if len(registers) > k:
                # overflow register true → violation (when gated)
                self.solver.add_clause([-gate, -registers[k]])

    def _at_least_k(self, xs: List[int], k: int, gate: int) -> None:
        """Under ``gate``, at least ``k`` of ``xs`` are true.

        Encoded as: at most ``len(xs) - k`` of the negations are true.
        """
        negs = []
        for x in xs:
            neg = self.solver.new_var()
            self.solver.add_clause([neg, x])
            self.solver.add_clause([-neg, -x])
            negs.append(neg)
        self._at_most_k(negs, len(xs) - k, gate)

    # ------------------------------------------------------------------
    # minimize
    # ------------------------------------------------------------------
    def _encode_minimizes(self) -> None:
        # clingo semantics: weights are summed over distinct
        # (weight, priority, terms) tuples that hold in the model.
        groups: Dict[Tuple, List[int]] = {}
        for melem in self.program.minimizes:
            body = self.body_var(melem.pos, melem.neg)
            key = (melem.priority, melem.weight, melem.terms)
            groups.setdefault(key, []).append(body)
        for (priority, weight, _terms), bodies in groups.items():
            if len(bodies) == 1:
                indicator = bodies[0]
            else:
                indicator = self.solver.new_var()
                for b in bodies:
                    self.solver.add_clause([-b, indicator])
                self.solver.add_clause([-indicator] + bodies)
            self.objectives.setdefault(priority, []).append((weight, indicator))

    # ------------------------------------------------------------------
    # model decoding
    # ------------------------------------------------------------------
    def decode_model(self) -> set:
        """The set of true atoms in the solver's current model."""
        model = self.solver.model()
        return {
            atom
            for atom, var in self.atom_var.items()
            if model[var] == 1
        }
