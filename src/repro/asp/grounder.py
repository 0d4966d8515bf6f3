"""Bottom-up grounder: instantiate rule variables over derivable atoms.

Two-phase algorithm:

1. **Possible-atom fixpoint** (semi-naive): compute the superset of atoms
   that could be derived by any rule, ignoring negative literals (they
   can only *block* derivation) and treating choice heads as derivable.
2. **Instantiation**: re-join every rule's positive body over the final
   possible-atom set, evaluating builtin comparisons on the way.
   Negative literals whose atom is *impossible* are certainly true and
   dropped; the rest stay in the ground rule for the solver to decide.

Join order is chosen greedily per binding step: evaluable comparisons
first, then the positive literal with the most bound arguments (using a
per-(signature, position, value) index to keep candidate lists short).
This keeps grounding near-linear for the concretizer's rule shapes.

**Monotone mode** (``Grounder(program, monotone=True)``) supports
incremental re-grounding: :meth:`prepare` runs the possible-atom
fixpoint once over the *base* program, and :meth:`ground_with` then
produces a ground program for base + per-solve *volatile* facts (and
head-less volatile rules) by resuming the fixpoint from just the new
atoms and re-running only the instantiation phase.  Soundness rests on
three facts:

* the possible-atom index only ever *grows*, so it over-approximates
  the possible set of any base+volatile program seen so far; extra rule
  instances mention atoms with no support, which the translator's
  completion forces false (stale atoms are inert, including choice
  elements conditioned on since-removed facts);
* negative literals are only dropped when their atom was never possible
  in *any* solve — a superset check, still sound;
* certainty is restricted to what the base program alone derives
  (volatile facts are possible but never certain, and the
  negation-based :meth:`_certain_fixpoint` — which is only valid
  against a *final* possible set — is skipped entirely).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .ground import (
    GroundChoice,
    GroundChoiceElement,
    GroundMinimize,
    GroundProgram,
    GroundRule,
)
from .syntax import (
    Atom,
    BodyElement,
    ChoiceHead,
    Comparison,
    Function,
    Integer,
    Literal,
    Program,
    Rule,
    Term,
    Variable,
)

__all__ = ["Grounder", "GroundingError", "ground"]


class GroundingError(ValueError):
    """Raised for unsafe rules (head/negative/comparison variables not
    bound by the positive body)."""


Signature = Tuple[str, int]


def _match_term(pattern: Term, value: Term, binding: dict) -> bool:
    """Unify ``pattern`` (may contain variables) against ground ``value``.

    Extends ``binding`` in place; returns False (binding possibly
    partially extended — caller must copy) on mismatch.
    """
    if isinstance(pattern, Variable):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = value
            return True
        return bound == value
    if isinstance(pattern, Function):
        if (
            not isinstance(value, Function)
            or pattern.name != value.name
            or len(pattern.args) != len(value.args)
        ):
            return False
        return all(
            _match_term(p, v, binding) for p, v in zip(pattern.args, value.args)
        )
    return pattern == value


def match_atom(pattern: Atom, value: Atom, binding: dict) -> Optional[dict]:
    """Match a pattern atom against a ground atom; return the extended
    binding or None."""
    if pattern.predicate != value.predicate or len(pattern.args) != len(value.args):
        return None
    new = dict(binding)
    for p, v in zip(pattern.args, value.args):
        if not _match_term(p, v, new):
            return None
    return new


class AtomIndex:
    """Ground atoms indexed by signature and by (signature, argpos, value)."""

    def __init__(self):
        self.by_sig: Dict[Signature, List[Atom]] = defaultdict(list)
        self.by_arg: Dict[Tuple[Signature, int, Term], List[Atom]] = defaultdict(list)
        self.all: Set[Atom] = set()

    def add(self, atom: Atom) -> bool:
        if atom in self.all:
            return False
        self.all.add(atom)
        sig = atom.signature
        self.by_sig[sig].append(atom)
        for i, arg in enumerate(atom.args):
            self.by_arg[(sig, i, arg)].append(atom)
        return True

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.all

    def candidates(self, pattern: Atom, binding: dict) -> List[Atom]:
        """The shortest candidate list for a partially-bound pattern."""
        sig = pattern.signature
        best = self.by_sig.get(sig, [])
        for i, arg in enumerate(pattern.args):
            ground_arg = arg.substitute(binding) if not arg.is_ground else arg
            if ground_arg.is_ground:
                bucket = self.by_arg.get((sig, i, ground_arg), [])
                if len(bucket) < len(best):
                    best = bucket
        return best


class _SeedTable:
    """Delta-driven firing entries keyed by (signature, ground positions,
    their values).

    The body literal ``hash_attr(H, "version", "mpich", V)`` is filed
    under ``(("hash_attr", 4), (1, 2), ("version", "mpich"))``.  A delta
    atom looks up one bucket per position set in use for its signature,
    so it meets only the literals whose constants it already equals —
    not every literal of the same predicate and arity.  Bucket hits are
    a superset of the entries :func:`match_atom` accepts (non-ground
    arguments are still matched by the caller), and :meth:`lookup`
    returns them in insertion order, so firing order — and with it the
    ground program — is exactly what a signature-only map would give.
    """

    def __init__(self):
        self._shapes: Dict[Signature, List[Tuple[int, ...]]] = {}
        self._buckets: Dict[tuple, List[tuple]] = {}
        self._size = 0

    def add(self, pattern: Atom, rule: Rule, seed) -> None:
        args = pattern.args
        positions = tuple(i for i, arg in enumerate(args) if arg.is_ground)
        sig = pattern.signature
        shapes = self._shapes.setdefault(sig, [])
        if positions not in shapes:
            shapes.append(positions)
        key = (sig, positions, tuple(args[i] for i in positions))
        self._buckets.setdefault(key, []).append((self._size, rule, seed))
        self._size += 1

    def lookup(self, atom: Atom) -> List[tuple]:
        """The ``(order, rule, seed)`` entries whose literal's constants
        ``atom`` equals, in insertion order."""
        sig = atom.signature
        shapes = self._shapes.get(sig)
        if not shapes:
            return []
        args = atom.args
        buckets = self._buckets
        if len(shapes) == 1:
            positions = shapes[0]
            return buckets.get((sig, positions, tuple(args[i] for i in positions)), [])
        hits: List[tuple] = []
        for positions in shapes:
            bucket = buckets.get((sig, positions, tuple(args[i] for i in positions)))
            if bucket:
                hits.extend(bucket)
        hits.sort()  # by insertion number: unique, so rules never compare
        return hits


def _seed_table(rules: Iterable[Rule]) -> _SeedTable:
    """Every positive body literal of ``rules`` as seed ``i`` (its body
    index), and every positive choice-element condition literal as seed
    ``(element, cond_index)``."""
    table = _SeedTable()
    for rule in rules:
        for i, e in enumerate(rule.body):
            if isinstance(e, Literal) and e.positive:
                table.add(e.atom, rule, i)
        if isinstance(rule.head, ChoiceHead):
            for element in rule.head.elements:
                for ci, c in enumerate(element.condition):
                    if isinstance(c, Literal) and c.positive:
                        table.add(c.atom, rule, (element, ci))
    return table


def _has_positive(body: Sequence[BodyElement]) -> bool:
    return any(isinstance(e, Literal) and e.positive for e in body)


def _bound_vars(term_or_atom, binding: dict) -> bool:
    return all(v in binding for v in term_or_atom.variables())


class _Joiner:
    """Instantiates a body (positive literals + comparisons) over an index."""

    def __init__(self, index: AtomIndex):
        self.index = index

    def join(
        self,
        elements: Sequence[BodyElement],
        binding: dict,
    ) -> Iterator[dict]:
        """Yield every binding extending ``binding`` that satisfies all
        positive literals and comparisons.  Negative literals are skipped
        here (handled by the caller after full instantiation)."""
        pending: List[BodyElement] = [
            e
            for e in elements
            if isinstance(e, Comparison) or (isinstance(e, Literal) and e.positive)
        ]
        yield from self._join_rec(pending, binding)

    def _join_rec(self, pending: List[BodyElement], binding: dict) -> Iterator[dict]:
        if not pending:
            yield binding
            return
        # Pick the next element: any evaluable comparison (including
        # ``X = expr`` assignments once the expression side is bound),
        # else the positive literal with the fewest candidates.
        chosen_idx = None
        assignment = None
        for i, e in enumerate(pending):
            if isinstance(e, Comparison):
                if _bound_vars(e, binding):
                    chosen_idx = i
                    break
                if e.op == "=" and assignment is None:
                    bound = self._assignment(e, binding)
                    if bound is not None:
                        assignment = (i, bound)
        if chosen_idx is None and assignment is not None:
            i, (var_name, value) = assignment
            new = dict(binding)
            new[var_name] = value
            rest = pending[:i] + pending[i + 1 :]
            yield from self._join_rec(rest, new)
            return
        if chosen_idx is None:
            best_size = None
            for i, e in enumerate(pending):
                if isinstance(e, Literal):
                    size = len(self.index.candidates(e.atom, binding))
                    if best_size is None or size < best_size:
                        best_size, chosen_idx = size, i
            if chosen_idx is None:
                # Only unevaluable comparisons remain → unsafe rule.
                raise GroundingError(
                    f"comparison over unbound variables: {pending!r}"
                )
        element = pending[chosen_idx]
        rest = pending[:chosen_idx] + pending[chosen_idx + 1 :]
        if isinstance(element, Comparison):
            if element.substitute(binding).evaluate():
                yield from self._join_rec(rest, binding)
            return
        for candidate in self.index.candidates(element.atom, binding):
            new = match_atom(element.atom, candidate, binding)
            if new is not None:
                yield from self._join_rec(rest, new)

    @staticmethod
    def _assignment(comparison: Comparison, binding: dict):
        """``X = expr`` (or ``expr = X``) with X unbound and expr ground
        binds X; returns (var_name, value) or None."""
        left = comparison.left.substitute(binding)
        right = comparison.right.substitute(binding)
        if isinstance(left, Variable) and right.is_ground:
            return (left.name, right)
        if isinstance(right, Variable) and left.is_ground:
            return (right.name, left)
        return None


class Grounder:
    """Grounds a :class:`Program` into a :class:`GroundProgram`.

    With ``monotone=True`` the grounder keeps enough state to be
    *extended* with volatile facts after the initial fixpoint (see the
    module docstring for the soundness argument); the classic
    single-shot path is unchanged.
    """

    def __init__(self, program: Program, monotone: bool = False):
        self.program = program
        self.monotone = monotone
        self.index = AtomIndex()
        self.joiner = _Joiner(self.index)
        #: atoms that hold in EVERY stable model (deterministic closure);
        #: rules deriving them are projected to plain facts, mirroring
        #: the simplification clingo's grounder performs
        self.certain: Set[Atom] = set()
        self._certain_sig_count: Dict[Signature, int] = defaultdict(int)
        self._prepared = False
        #: phase-1 seed table, kept as an attribute so :meth:`add_facts`
        #: can resume the fixpoint after :meth:`prepare`
        self._seeds = _SeedTable()
        self._negfree: Dict[int, bool] = {}

    def _mark_certain(self, atom: Atom) -> bool:
        if atom in self.certain:
            return False
        self.certain.add(atom)
        self._certain_sig_count[atom.signature] += 1
        return True

    # ------------------------------------------------------------------
    # phase 1: possible atoms
    # ------------------------------------------------------------------
    def _derive(self, rule: Rule, binding: dict, delta: List[Atom]) -> None:
        """Record the head atoms of a fired instance; negation-free
        normal rules whose positive body is fully *certain* make the
        head certain too (fused deterministic closure)."""
        if isinstance(rule.head, Atom):
            head = rule.head.substitute(binding)
            if not head.is_ground:
                raise GroundingError(f"unsafe head variables in {rule!r}")
            newly_possible = self.index.add(head)
            newly_certain = False
            if self._negfree.get(id(rule), False) and head not in self.certain:
                if all(
                    e.atom.substitute(binding) in self.certain
                    for e in rule.body
                    if isinstance(e, Literal)
                ):
                    self._mark_certain(head)
                    newly_certain = True
            if newly_possible or newly_certain:
                # re-enqueue on new *certainty* too: dependents must get
                # a chance to become certain themselves (firing is
                # idempotent, certainty is monotone — this terminates)
                delta.append(head)
            return
        for element in rule.head.elements:
            for cond_binding in self.joiner.join(element.condition, binding):
                atom = element.atom.substitute(cond_binding)
                if not atom.is_ground:
                    raise GroundingError(
                        f"unsafe choice element variables in {rule!r}"
                    )
                if self.index.add(atom):
                    delta.append(atom)

    def prepare(self) -> None:
        """Naive-with-delta fixpoint over the possible-atom set
        (idempotent).

        Rules are re-instantiated each pass but joins are seeded from the
        delta (atoms new since the previous pass) on one body literal,
        which gives semi-naive behaviour for the common case.
        """
        if self._prepared:
            return
        self._prepared = True
        rules = [r for r in self.program.rules if r.head is not None]
        #: normal rules with no negative literals (certainty propagates)
        self._negfree = {
            id(r): isinstance(r.head, Atom)
            and not any(
                isinstance(e, Literal) and not e.positive for e in r.body
            )
            for r in rules
        }
        # Seed: facts and body-less choice heads.
        delta: List[Atom] = []
        for rule in rules:
            if not rule.body:
                if isinstance(rule.head, Atom):
                    if not rule.head.is_ground:
                        raise GroundingError(f"non-ground fact {rule!r}")
                    self._mark_certain(rule.head)
                    if self.index.add(rule.head):
                        delta.append(rule.head)
                else:
                    self._derive(rule, {}, delta)
        # Seed table for delta-driven firing.  A choice-element
        # *condition* literal is a seed too — its atoms may only become
        # possible after the rule body first fired, and incremental
        # seeding keeps this linear (a full re-join per delta atom is
        # quadratic in e.g. the number of splice candidates, Figure 7's
        # workload).
        self._seeds = _seed_table(rules)
        # Fire comparison-only-body rules once (their negations ignored).
        for rule in rules:
            if rule.body and not _has_positive(rule.body):
                for binding in self.joiner.join(rule.body, {}):
                    self._derive(rule, binding, delta)
        self._close(delta)

    def add_facts(self, atoms: Iterable[Atom]) -> int:
        """Resume the possible-atom fixpoint with externally supplied
        ground facts (monotone mode): the atoms become *possible* —
        never certain — and anything they newly enable is derived via
        the same delta-driven closure.  Returns how many were new."""
        self.prepare()
        delta: List[Atom] = []
        for a in atoms:
            if not a.is_ground:
                raise GroundingError(f"non-ground volatile fact {a!r}")
            if self.index.add(a):
                delta.append(a)
        added = len(delta)
        self._close(delta)
        return added

    def _close(self, delta: List[Atom]) -> None:
        """Delta-driven closure of the possible-atom fixpoint."""
        seeds = self._seeds
        while delta:
            atom = delta.pop()
            for _, rule, lit_index in seeds.lookup(atom):
                if isinstance(lit_index, tuple):
                    # condition-driven seeding: bind the condition
                    # literal to the delta atom, then join the body plus
                    # the element's remaining condition literals
                    element, cond_index = lit_index
                    cond_literal = element.condition[cond_index]
                    binding = match_atom(cond_literal.atom, atom, {})
                    if binding is None:
                        continue
                    rest = list(rule.body) + [
                        c
                        for j, c in enumerate(element.condition)
                        if j != cond_index
                    ]
                    for full_binding in self.joiner.join(rest, binding):
                        head = element.atom.substitute(full_binding)
                        if not head.is_ground:
                            raise GroundingError(
                                f"unsafe choice element variables in {rule!r}"
                            )
                        if self.index.add(head):
                            delta.append(head)
                    continue
                seed_literal = rule.body[lit_index]
                assert isinstance(seed_literal, Literal)
                binding = match_atom(seed_literal.atom, atom, {})
                if binding is None:
                    continue
                rest = list(rule.body[:lit_index]) + list(rule.body[lit_index + 1 :])
                for full_binding in self.joiner.join(rest, binding):
                    self._derive(rule, full_binding, delta)

    # ------------------------------------------------------------------
    # phase 2: instantiation
    # ------------------------------------------------------------------
    def _split_negatives(
        self, body: Sequence[BodyElement], binding: dict
    ) -> Optional[List[Atom]]:
        """Ground the negative literals; None means the instance is
        blocked (a negated atom is a *fact*, hence certainly true)."""
        neg: List[Atom] = []
        for e in body:
            if isinstance(e, Literal) and not e.positive:
                atom = e.atom.substitute(binding)
                if not atom.is_ground:
                    raise GroundingError(
                        f"unsafe negative literal {e!r} (unbound variables)"
                    )
                if atom in self.index:
                    neg.append(atom)
                # impossible atom → `not atom` certainly true → drop
        return neg

    def _ground_pos(self, body: Sequence[BodyElement], binding: dict) -> List[Atom]:
        return [
            e.atom.substitute(binding)
            for e in body
            if isinstance(e, Literal) and e.positive
        ]

    def _certain_fixpoint(self) -> None:
        """Complete the deterministic closure for rules *with negation*.

        The possible-atom pass already propagates certainty through
        negation-free rules; here, a rule with negative literals makes
        its head certain when the positives are certain and every
        negated atom is impossible (absent from the possible set) —
        decidable only now that the possible set is final.  Newly
        certain atoms chain through the full rule set via the delta.
        """
        rules = [r for r in self.program.rules if isinstance(r.head, Atom)]
        negation_rules = [
            r
            for r in rules
            if any(isinstance(e, Literal) and not e.positive for e in r.body)
        ]
        delta: List[Atom] = []
        seeds = _seed_table(rules)

        def fire(rule: Rule, binding: dict) -> None:
            for e in rule.body:
                if isinstance(e, Literal) and not e.positive:
                    neg_atom = e.atom.substitute(binding)
                    if not neg_atom.is_ground:
                        raise GroundingError(
                            f"unsafe negative literal {e!r} (unbound variables)"
                        )
                    if neg_atom in self.index:
                        return  # possibly true → head not certain
            for e in rule.body:
                if isinstance(e, Literal) and e.positive:
                    if e.atom.substitute(binding) not in self.certain:
                        return  # uncertain positive support
            head = rule.head.substitute(binding)
            if self._mark_certain(head):
                delta.append(head)

        nobody_rules = [r for r in negation_rules if not _has_positive(r.body)]
        for rule in nobody_rules:
            for binding in self.joiner.join(rule.body, {}):
                fire(rule, binding)
        # initial sweep: negation rules with positive bodies, joined over
        # the possible index and filtered on certainty in fire()
        for rule in negation_rules:
            if _has_positive(rule.body):
                for binding in self.joiner.join(rule.body, {}):
                    fire(rule, binding)
        while delta:
            atom = delta.pop()
            for _, rule, lit_index in seeds.lookup(atom):
                seed = rule.body[lit_index]
                assert isinstance(seed, Literal)
                binding = match_atom(seed.atom, atom, {})
                if binding is None:
                    continue
                rest = list(rule.body[:lit_index]) + list(rule.body[lit_index + 1 :])
                for full in self.joiner.join(rest, binding):
                    fire(rule, full)

    def _rule_fully_certain(self, rule: Rule) -> bool:
        """Cheap signature-level proof that every ground instance of the
        rule derives a certain atom (so phase 2 may skip the join: the
        heads were all emitted as facts already)."""
        if not isinstance(rule.head, Atom):
            return False
        if self.monotone and any(
            isinstance(e, Literal) and not e.positive for e in rule.body
        ):
            # "no possible atom of the negated signature" can be
            # invalidated by a later add_facts — never skip these here
            # (their heads were also never marked certain).
            return False
        for e in rule.body:
            if not isinstance(e, Literal):
                continue
            sig = e.atom.signature
            if e.positive:
                if self._certain_sig_count.get(sig, 0) != len(
                    self.index.by_sig.get(sig, ())
                ):
                    return False
            else:
                if self.index.by_sig.get(sig):
                    return False  # some instances may be blocked
        return True

    def ground(self) -> GroundProgram:
        self.prepare()
        if not self.monotone:
            # only sound against a FINAL possible set: a later add_facts
            # could make a "certainly absent" negated atom possible
            self._certain_fixpoint()
        return self._assemble()

    def ground_with(
        self,
        volatile_facts: Sequence[Atom] = (),
        volatile_rules: Sequence[Rule] = (),
    ) -> GroundProgram:
        """Monotone re-ground: extend the possible-atom index with the
        volatile facts, then instantiate base + volatile.

        Volatile rules must be head-less (integrity constraints) — a
        head-bearing volatile rule would have to participate in the
        phase-1 fixpoint, which is built from the base program only.
        """
        if not self.monotone:
            raise GroundingError("ground_with requires monotone mode")
        for rule in volatile_rules:
            if rule.head is not None:
                raise GroundingError(
                    f"volatile rules must be head-less constraints: {rule!r}"
                )
        self.add_facts(volatile_facts)
        return self._assemble(volatile_facts, volatile_rules)

    def _assemble(
        self,
        extra_facts: Sequence[Atom] = (),
        extra_rules: Sequence[Rule] = (),
    ) -> GroundProgram:
        out = GroundProgram()
        # every certain atom is emitted once, as a fact
        for atom in self.certain:
            out.rules.append(GroundRule(atom))
        emitted_extra: Set[Atom] = set()
        for fact in extra_facts:
            if fact not in self.certain and fact not in emitted_extra:
                emitted_extra.add(fact)
                out.rules.append(GroundRule(fact))
        for rule in list(self.program.rules) + list(extra_rules):
            if (
                isinstance(rule.head, Atom)
                and not rule.body
                and rule.head in self.certain
            ):
                continue  # original facts already emitted above
            if rule.body and self._rule_fully_certain(rule):
                continue  # all instances subsumed by certain facts
            for binding in self.joiner.join(rule.body, {}):
                if isinstance(rule.head, Atom):
                    head = rule.head.substitute(binding)
                    if head in self.certain:
                        continue  # subsumed by the fact
                    neg = self._split_negatives(rule.body, binding)
                    pos = self._ground_pos(rule.body, binding)
                    out.rules.append(GroundRule(head, pos, neg))
                    continue
                neg = self._split_negatives(rule.body, binding)
                pos = self._ground_pos(rule.body, binding)
                if rule.head is None:
                    out.rules.append(GroundRule(None, pos, neg))
                else:
                    elements = self._ground_choice_elements(rule.head, binding)
                    if elements or rule.head.lower:
                        out.choices.append(
                            GroundChoice(
                                elements,
                                rule.head.lower,
                                rule.head.upper,
                                pos,
                                neg,
                            )
                        )
        for melem in self.program.minimizes:
            for binding in self.joiner.join(melem.body, {}):
                neg = self._split_negatives(melem.body, binding)
                pos = self._ground_pos(melem.body, binding)
                weight = melem.weight.substitute(binding)
                if not isinstance(weight, Integer):
                    raise GroundingError(
                        f"minimize weight must ground to an integer: {melem!r}"
                    )
                terms = tuple(t.substitute(binding) for t in melem.terms)
                out.minimizes.append(
                    GroundMinimize(weight.value, melem.priority, terms, pos, neg)
                )
        return out

    def _ground_choice_elements(
        self, head: ChoiceHead, binding: dict
    ) -> List[GroundChoiceElement]:
        elements: List[GroundChoiceElement] = []
        seen: Set[Atom] = set()
        for element in head.elements:
            for cond_binding in self.joiner.join(element.condition, binding):
                atom = element.atom.substitute(cond_binding)
                cond_neg: List[Atom] = []
                blocked = False
                for c in element.condition:
                    if isinstance(c, Literal) and not c.positive:
                        neg_atom = c.atom.substitute(cond_binding)
                        if neg_atom in self.index:
                            cond_neg.append(neg_atom)
                cond_pos = [
                    c.atom.substitute(cond_binding)
                    for c in element.condition
                    if isinstance(c, Literal) and c.positive
                ]
                if not blocked and atom not in seen:
                    seen.add(atom)
                    elements.append(GroundChoiceElement(atom, cond_pos, cond_neg))
        return elements


def ground(program: Program) -> GroundProgram:
    """Convenience wrapper: ground ``program`` with a fresh Grounder."""
    return Grounder(program).ground()
