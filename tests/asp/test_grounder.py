"""Grounder tests: instantiation, joins, comparisons, negation handling."""

import random

import pytest

from repro.asp import grounder as grounder_module
from repro.asp.grounder import Grounder, GroundingError, ground
from repro.asp.parser import parse_program
from repro.asp.syntax import Atom, Variable


def ground_text(text):
    return ground(parse_program(text))


def rule_strs(gp):
    return sorted(repr(r) for r in gp.rules)


class TestBasicGrounding:
    def test_facts_pass_through(self):
        gp = ground_text("a. b(1).")
        assert len(gp.rules) == 2

    def test_single_variable(self):
        gp = ground_text("p(1). p(2). q(X) :- p(X).")
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "q"}
        assert heads == {"q(1)", "q(2)"}

    def test_join_two_literals(self):
        gp = ground_text("e(1,2). e(2,3). path(X,Z) :- e(X,Y), e(Y,Z).")
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "path"}
        assert heads == {"path(1,3)"}

    def test_recursion(self):
        gp = ground_text(
            "e(1,2). e(2,3). e(3,4). "
            "r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z)."
        )
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "r"}
        assert "r(1,4)" in heads

    def test_nested_function_matching(self):
        gp = ground_text(
            'pkg(version_declared("1.0")). chosen(V) :- pkg(version_declared(V)).'
        )
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "chosen"}
        assert heads == {'chosen("1.0")'}

    def test_unused_rule_grounds_to_nothing(self):
        gp = ground_text("a. q(X) :- missing(X).")
        assert all(r.head is None or r.head.predicate != "q" for r in gp.rules)


class TestComparisons:
    def test_filtering(self):
        gp = ground_text("n(1). n(2). n(3). big(X) :- n(X), X > 1.")
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "big"}
        assert heads == {"big(2)", "big(3)"}

    def test_inequality_join(self):
        gp = ground_text("n(1). n(2). pair(X,Y) :- n(X), n(Y), X != Y.")
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "pair"}
        assert heads == {"pair(1,2)", "pair(2,1)"}

    def test_string_ordering(self):
        gp = ground_text('s("a"). s("b"). lt(X,Y) :- s(X), s(Y), X < Y.')
        heads = {repr(r.head) for r in gp.rules if r.head and r.head.predicate == "lt"}
        assert heads == {'lt("a","b")'}

    def test_unsafe_comparison_raises(self):
        with pytest.raises(GroundingError):
            ground_text("p(X) :- X > 1.")


class TestNegation:
    def test_impossible_negative_dropped(self):
        # `not missing` is certainly true → removed from the ground body
        gp = ground_text("a. b :- a, not missing.")
        b_rules = [r for r in gp.rules if r.head and r.head.predicate == "b"]
        assert b_rules and not b_rules[0].neg

    def test_possible_negative_kept(self):
        gp = ground_text("{ a }. b :- not a.")
        b_rules = [r for r in gp.rules if r.head and r.head.predicate == "b"]
        assert b_rules and len(b_rules[0].neg) == 1

    def test_negation_with_variables(self):
        gp = ground_text("p(1). p(2). { q(1) }. r(X) :- p(X), not q(X).")
        r_rules = [r for r in gp.rules if r.head and r.head.predicate == "r"]
        by_head = {repr(r.head): r for r in r_rules}
        assert len(by_head["r(1)"].neg) == 1  # q(1) possible
        assert len(by_head["r(2)"].neg) == 0  # q(2) impossible


class TestChoices:
    def test_elements_instantiated_from_conditions(self):
        gp = ground_text("opt(1). opt(2). { pick(X) : opt(X) } 1.")
        choice = gp.choices[0]
        atoms = {repr(e.atom) for e in choice.elements}
        assert atoms == {"pick(1)", "pick(2)"}
        assert choice.upper == 1

    def test_choice_body_instantiation(self):
        gp = ground_text("n(1). n(2). v(10). { pick(X, V) : v(V) } 1 :- n(X).")
        assert len(gp.choices) == 2

    def test_choice_head_atoms_are_possible(self):
        gp = ground_text("{ a }. b :- a.")
        b_rules = [r for r in gp.rules if r.head and r.head.predicate == "b"]
        assert len(b_rules) == 1

    def test_empty_choice_with_lower_bound_kept(self):
        gp = ground_text("trigger. 1 { pick(X) : opt(X) } 1 :- trigger.")
        assert len(gp.choices) == 1
        assert not gp.choices[0].elements


class TestMinimizeGrounding:
    def test_elements_per_binding(self):
        gp = ground_text("p(1). p(2). #minimize { 1, X : p(X) }.")
        assert len(gp.minimizes) == 2

    def test_variable_weight_bound(self):
        gp = ground_text('vw("a", 3). #minimize { W, P : vw(P, W) }.')
        assert gp.minimizes[0].weight == 3

    def test_non_integer_weight_rejected(self):
        with pytest.raises(GroundingError):
            ground_text('vw("a", "heavy"). #minimize { W, P : vw(P, W) }.')


class TestSafety:
    def test_unsafe_head_variable(self):
        with pytest.raises(GroundingError):
            ground_text("a. p(X) :- a.")

    def test_unsafe_negative_variable(self):
        with pytest.raises(GroundingError):
            ground_text("a. p :- a, not q(X).")


# ----------------------------------------------------------------------
# seed table: exact-key delta dispatch
# ----------------------------------------------------------------------
class _SignatureOnlyTable(grounder_module._SeedTable):
    """Files every literal under its signature alone, so every delta atom
    is tried against every literal of its predicate and arity."""

    def add(self, pattern, rule, seed):
        anonymous = Atom(
            pattern.predicate, [Variable(f"_V{i}") for i in range(len(pattern.args))]
        )
        super().add(anonymous, rule, seed)


def _ground_both(text, monkeypatch):
    exact = ground(parse_program(text))
    with monkeypatch.context() as m:
        m.setattr(grounder_module, "_SeedTable", _SignatureOnlyTable)
        by_signature = ground(parse_program(text))
    return exact, by_signature


def _shape(gp):
    return (
        [repr(r) for r in gp.rules],
        [repr(c) for c in gp.choices],
        [repr(m) for m in gp.minimizes],
    )


_CONSTANTS = ["a", '"x"', "1", 'node("x")', "node(a)"]
_VARS = ["X", "Y", "Z"]


def _random_program(rng):
    """Facts and rules whose body literals carry constants at leading,
    non-leading and multiple positions, function terms (ground and with
    variables inside), recursion, negation and choice conditions."""
    base = {"p": 2, "q": 3, "r": 1}
    derived = {"s": 2, "t": 3, "u": 1}
    arity = {**base, **derived}
    lines = []
    for pred, n in base.items():
        for _ in range(rng.randint(6, 14)):
            args = ", ".join(rng.choice(_CONSTANTS) for _ in range(n))
            lines.append(f"{pred}({args}).")

    def literal(pred):
        args = []
        for _ in range(arity[pred]):
            roll = rng.random()
            if roll < 0.35:
                args.append(rng.choice(_CONSTANTS))
            elif roll < 0.45:
                args.append(f"node({rng.choice(_VARS)})")
            else:
                args.append(rng.choice(_VARS))
        return f"{pred}({', '.join(args)})"

    def variables(text):
        return {v for v in _VARS if v in text.replace("node(", "(")}

    for _ in range(rng.randint(4, 9)):
        body = [literal(rng.choice(list(arity))) for _ in range(rng.randint(1, 3))]
        bound = sorted(set().union(*(variables(b) for b in body)))
        head_pred = rng.choice(list(derived))
        head_args = [
            rng.choice(bound) if bound and rng.random() < 0.7 else rng.choice(_CONSTANTS)
            for _ in range(arity[head_pred])
        ]
        extra = []
        if bound and rng.random() < 0.3:
            extra.append(f"not u({rng.choice(bound)})")
        if len(bound) >= 2 and rng.random() < 0.3:
            extra.append(f"{bound[0]} != {bound[1]}")
        lines.append(
            f"{head_pred}({', '.join(head_args)}) :- {', '.join(body + extra)}."
        )
    for _ in range(rng.randint(0, 2)):
        condition = literal(rng.choice(list(arity)))
        cond_vars = sorted(variables(condition))
        element_arg = rng.choice(cond_vars) if cond_vars else rng.choice(_CONSTANTS)
        lines.append(f"{{ u({element_arg}) : {condition} }} :- r(W).")
    return "\n".join(lines)


class TestExactKeyDispatch:
    """Dispatching delta atoms by their constant arguments must give the
    same ground program — rule for rule, in the same order — as trying
    every literal of the signature."""

    HANDWRITTEN = [
        # hash_attr-shaped: constants at non-leading and multiple positions
        """
        hash_attr(h1, "version", "mpich", "3.4.3").
        hash_attr(h2, "version", "mvapich2", "2.3").
        hash_attr(h1, "depends_on", "mpich", "zlib").
        hash_attr(h3, "variant", "mpich", "shared").
        cand(h1). cand(h2). cand(h3).
        can_splice(H, V) :- cand(H), hash_attr(H, "version", "mpich", V).
        dep(H, D) :- hash_attr(H, "depends_on", "mpich", D).
        any(H) :- hash_attr(H, K, P, V).
        pair(H, V) :- hash_attr(H, "version", P, V), hash_attr(H, K, P, "zlib").
        """,
        # function terms, ground and with variables inside
        """
        attr("node", node("x")). attr("node", node("y")).
        attr("version", node("x"), "1.0"). attr("version", node("y"), "2.0").
        attr("hash", node("x"), h1).
        pinned(V) :- attr("version", node("x"), V).
        versioned(N, V) :- attr("version", node(N), V).
        hashed(N) :- attr("hash", node(N), H), not attr("hash", node("y"), H).
        reach(node("x")). reach(M) :- reach(N), link(N, M).
        link(node("x"), node("y")). link(node("y"), node("z")).
        """,
        # choice conditions carrying constants, and recursion through them
        """
        imposed_constraint(h1, "node_version", "mpich", "3.4.3").
        imposed_constraint(h2, "node_version", "zlib", "1.2").
        imposed_constraint(h2, "depends_on", "zlib", "mpich").
        installed(h1). installed(h2).
        { chosen(H) : installed(H), imposed_constraint(H, "node_version", P, V) } 1 :- go.
        go.
        uses(P) :- chosen(H), imposed_constraint(H, "depends_on", Q, P).
        uses(P) :- uses(Q), imposed_constraint(H, "depends_on", Q, P).
        #minimize { 1@2, H : chosen(H) }.
        """,
        # one delta atom meets entries of two shapes, interleaved in
        # rule order: firing order fixes the order of the h/2 instances
        # and so of the out/2 rules joined over them
        """
        e(1). kk(1..3).
        h(X, 1) :- e(X).
        h(1, 2) :- e(1).
        h(X, 3) :- e(X).
        { nb(K) : kk(K) }.
        out(X, K) :- h(X, K), not nb(K).
        """,
    ]

    @pytest.mark.parametrize("index", range(len(HANDWRITTEN)))
    def test_handwritten_programs(self, index, monkeypatch):
        exact, by_signature = _ground_both(self.HANDWRITTEN[index], monkeypatch)
        assert _shape(exact) == _shape(by_signature)
        assert exact.rules  # the programs are not vacuous

    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs(self, seed, monkeypatch):
        text = _random_program(random.Random(seed))
        exact, by_signature = _ground_both(text, monkeypatch)
        assert set(_shape(exact)[0]) == set(_shape(by_signature)[0])
        assert _shape(exact) == _shape(by_signature)


class TestSpliceReplicasProgram:
    """The Fig. 7 top point (100 MPIABI replicas, mpich forbidden,
    splicing on, the RADIUSS stack cached against mpich@3.4.3): its
    ground program's size is pinned, so a dispatch change that drops or
    duplicates instances shows up as a count change."""

    VARIATIONS = [
        {},
        {("hdf5", "cxx"): "True", ("raja", "openmp"): "False"},
        {("conduit", "hdf5"): "False", ("mfem", "zlib"): "False"},
    ]

    @pytest.fixture(scope="class")
    def setting(self):
        from repro.buildcache.generate import greedy_concretize
        from repro.repos.radiuss import (
            RADIUSS_ROOTS,
            add_mpiabi_replicas,
            make_radiuss_repo,
        )

        repo = make_radiuss_repo()
        add_mpiabi_replicas(repo, 100)
        cache, seen = [], set()
        for variants in self.VARIATIONS:
            for root in RADIUSS_ROOTS:
                spec = greedy_concretize(
                    repo, root, versions={"mpich": "3.4.3"}, variants=variants,
                    include_build_deps=False,
                )
                if spec.dag_hash() not in seen:
                    seen.add(spec.dag_hash())
                    cache.append(spec)
        return repo, cache

    @pytest.mark.parametrize(
        "root, rules, atoms", [("hypre", 3671, 3530), ("py-shroud", 2141, 2135)]
    )
    def test_ground_program_size(self, setting, root, rules, atoms):
        from repro.concretize import Concretizer

        repo, cache = setting
        result = Concretizer(
            repo, reusable_specs=cache, splicing=True, incremental=False
        ).solve([root], forbidden=["mpich"])
        assert result.stats["ground_rules"] == rules
        assert result.stats["atoms"] == atoms
