"""The compiled evaluator, against the interpreter it replaces and the oracle.

`semantics.eval` compiles each formula node once into a closure.  The
recursive interpreter it replaced is kept below as the reference: `_eval`
dispatches on the node type on every call, keeps Exists/Forall truth values
per structurally equal node and builds solution sets in its own
`_solution_sets`.  Random formulas over Atomic, Equal with unary-function
terms, Not, And, Or, Exists, Forall and QStruct nodes with side formulas
are evaluated on random structures of sizes 0-5, under every assignment of
their free variables.  The verdict must be the reference's and
`oracles.oracle_eval`'s, and so must the error raised, if any.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_eval
from structlogic.errors import DomainError, SignatureError
from structlogic.semantics import _matches, solution_set
from structlogic.semantics import eval as ev
from structlogic.structures import FiniteStructure, decorated
from structlogic.syntax import (
    And,
    App,
    Atomic,
    Equal,
    Exists,
    Forall,
    Not,
    Or,
    QStruct,
    Var,
    free_vars,
    qstruct,
    scopes,
)
from structlogic.vocab import Vocabulary

# ---------------------------------------------------------------------------
# the recursive interpreter the compiled closures replaced


def _eval_term(n, t, env):
    if isinstance(t, Var):
        return env[t.name]
    return n.apply(t.fun, tuple(_eval_term(n, a, env) for a in t.args))


def reference_eval(n, phi, env):
    if isinstance(phi, Atomic):
        return tuple(_eval_term(n, t, env) for t in phi.terms) in n.rel(phi.rel)
    if isinstance(phi, Equal):
        return _eval_term(n, phi.left, env) == _eval_term(n, phi.right, env)
    if isinstance(phi, Not):
        return not reference_eval(n, phi.body, env)
    if isinstance(phi, And):
        return all(reference_eval(n, f, env) for f in phi.items)
    if isinstance(phi, Or):
        return any(reference_eval(n, f, env) for f in phi.items)
    if not isinstance(phi, (Exists, Forall, QStruct)):
        raise TypeError(f"not a formula: {phi!r}")
    params = tuple(sorted((v, env[v]) for v in free_vars(phi)))
    if not isinstance(phi, QStruct):
        return _eval_binder(n, phi, params)
    if not phi.target.base.vocab.is_subvocabulary_of(n.vocab):
        raise SignatureError(
            "quantifier target vocabulary is not a sub-vocabulary of the structure's"
        )
    sets = reference_solution_sets(n, scopes(phi), params)
    return _matches(n, phi.target, sets[0], sets[1:])


@lru_cache(maxsize=100_000)
def _eval_binder(n, phi, params):
    env = dict(params)
    found = (reference_eval(n, phi.body, {**env, phi.var: e}) for e in sorted(n.universe))
    return any(found) if isinstance(phi, Exists) else all(found)


@lru_cache(maxsize=100_000)
def reference_solution_sets(n, slots, params):
    env = dict(params)
    return tuple(
        frozenset(e for e in sorted(n.universe) if reference_eval(n, body, {**env, x: e}))
        for x, body in slots
    )


# ---------------------------------------------------------------------------
# random structures and formulas

VOCAB = Vocabulary({"R": 2, "P": 1}, {"f": 1})
TARGET_VOCABS = (
    Vocabulary(),
    Vocabulary({"R": 2}),
    Vocabulary({"P": 1}),
    Vocabulary(functions={"f": 1}),
    VOCAB,
)
VARS = ("x", "y", "z")


@st.composite
def structures(draw, vocab=VOCAB, sizes=(0, 5), low=(0, 10)):
    """A structure over vocab on the ids low..low+size-1."""
    size = draw(st.integers(*sizes))
    start = draw(st.sampled_from(low))
    elems = range(start, start + size)
    cells = st.sampled_from(elems) if size else st.nothing()
    relations = {
        name: draw(st.sets(st.tuples(*[cells] * vocab.rel_arity(name)), max_size=12))
        if size
        else set()
        for name in vocab.relation_names()
    }
    functions = {name: {(e,): draw(cells) for e in elems} for name in vocab.function_names()}
    return FiniteStructure(vocab, elems, relations, functions)


@st.composite
def targets(draw):
    base = draw(structures(draw(st.sampled_from(TARGET_VOCABS)), sizes=(1, 3), low=(0,)))
    side = draw(st.sets(st.sampled_from(sorted(base.universe))))
    return base, side


variables = st.sampled_from(VARS).map(Var)
terms = st.one_of(
    variables,
    variables.map(lambda v: App("f", (v,))),
    variables.map(lambda v: App("f", (App("f", (v,)),))),
)
atoms = st.one_of(
    st.builds(lambda a, b: Atomic("R", (a, b)), variables, variables),
    st.builds(lambda a, b: Atomic("R", (a, b)), terms, terms),
    st.builds(lambda a: Atomic("P", (a,)), terms),
    st.builds(Equal, terms, terms),
)


def _quantifier(target, var, side_var, phi, psi, with_side):
    base, side = target
    if with_side:
        return qstruct(decorated(base, (side,)), var, (side_var,), phi, (psi,))
    return qstruct(base, var, (), phi, ())


def _extend(inner):
    items = st.lists(inner, min_size=1, max_size=3).map(tuple)
    name = st.sampled_from(VARS)
    return st.one_of(
        inner.map(Not),
        items.map(And),
        items.map(Or),
        st.builds(Exists, name, inner),
        st.builds(Forall, name, inner),
        st.builds(_quantifier, targets(), name, name, inner, inner, st.booleans()),
    )


formulas = st.recursive(atoms, _extend, max_leaves=6)


def outcome(fn, *args):
    """fn's value, or the type of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the type is compared, not the message
        return type(exc)


def assignments(n, variables):
    for values in product(sorted(n.universe), repeat=len(variables)):
        yield dict(zip(variables, values))


@settings(max_examples=300, deadline=None)
@given(structures(), formulas)
def test_compiled_eval_agrees_with_the_interpreter_and_the_oracle(n, phi):
    variables = sorted(free_vars(phi))
    for env in assignments(n, variables):
        want = outcome(reference_eval, n, phi, env)
        assert outcome(ev, n, phi, env) == want, (phi, env)
        assert outcome(oracle_eval, n, phi, env) == want, (phi, env)
    for x in VARS:
        params = [v for v in variables if v != x]
        for env in assignments(n, params):
            key = tuple(sorted(env.items()))
            want = outcome(lambda: reference_solution_sets(n, ((x, phi),), key)[0])
            assert outcome(solution_set, n, phi, x, env) == want, (phi, x, env)


@settings(max_examples=200, deadline=None)
@given(structures(), targets(), formulas, formulas, terms)
def test_side_formula_reads_the_parameter_value_of_the_main_variable(n, target, phi, psi, t):
    # x is bound in the main formula only: in the side formula it is the
    # quantifier's parameter, not the last element the main sweep tried
    psi = And((Atomic("R", (Var("y"), Var("x"))), Atomic("P", (t,)), psi))
    q = _quantifier(target, "x", "y", phi, psi, True)
    for env in assignments(n, sorted(free_vars(q))):
        want = outcome(reference_eval, n, q, env)
        assert outcome(ev, n, q, env) == want, (q, env)


# ---------------------------------------------------------------------------
# errors, each raised as the interpreter raised it

LINE = FiniteStructure(
    Vocabulary({"R": 2}, {"f": 1}),
    range(3),
    {"R": {(0, 1), (1, 2)}},
    {"f": {(0,): 1, (1,): 2, (2,): 2}},
)


def _both(phi, env, n=LINE):
    return outcome(ev, n, phi, env), outcome(reference_eval, n, phi, env)


def test_unknown_relation_is_a_signature_error():
    phi = Exists("y", Atomic("S", (Var("x"), Var("y"))))
    assert _both(phi, {"x": 0}) == (SignatureError, SignatureError)


def test_target_outside_the_vocabulary_raises_on_every_call():
    # two of the three elements solve the main formula, so the match itself
    # rejects on size before it takes any reduct: only the check can raise
    main = Not(Equal(Var("y"), Var("x")))
    inside = qstruct(FiniteStructure(Vocabulary({"R": 2}), range(1)), "y", (), main, ())
    outside = qstruct(FiniteStructure(Vocabulary({"Q": 1}), range(1)), "y", (), main, ())
    other = FiniteStructure(Vocabulary({"Q": 1}), range(3))
    for _ in range(3):
        assert _both(outside, {"x": 0}) == (SignatureError, SignatureError)
        assert _both(outside, {"x": 1}) == (SignatureError, SignatureError)
        # a vocabulary that passes in between does not excuse the next call
        assert _both(outside, {"x": 0}, other) == (False, False)
        assert _both(inside, {"x": 0}) == (False, False)
        assert _both(inside, {"x": 0}, other) == (SignatureError, SignatureError)


def test_function_with_no_entry_is_a_domain_error():
    # f is unary, so the pair (x, x) has no entry
    phi = Forall("y", Equal(App("f", (Var("x"), Var("x"))), Var("y")))
    assert _both(phi, {"x": 0}) == (DomainError, DomainError)
    atom = Atomic("R", (App("f", (Var("x"), Var("x"))), Var("x")))
    assert _both(atom, {"x": 1}) == (DomainError, DomainError)


@pytest.mark.parametrize("phi", ["R(x, y)", 7, Not(7), And((Var("x"),))])
def test_non_formula_is_a_type_error(phi):
    assert outcome(ev, LINE, phi, {}) is TypeError
    assert outcome(reference_eval, LINE, phi, {}) is TypeError
