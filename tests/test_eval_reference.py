"""The generated evaluator, against the two evaluators it replaced and the oracle.

`semantics.eval` turns each formula into the Python source of one function.
Two earlier evaluators are kept below as references.  The recursive
interpreter, `reference_eval`, dispatches on the node type on every call,
keeps Exists/Forall truth values per structurally equal node, builds
solution sets in its own `reference_solution_sets` and compares canonical
keys of the target and the part in its own `reference_matches`.  The
closure compiler, `closure_eval`, compiles each node once into a closure
that calls its children's closures, keeps Exists/Forall truth values per
compiled node and solution sets per quantifier slots, and compares
canonical keys of the target and the part in its own `_closure_matches`.
Neither reads a memo of `semantics`, nor relies on its targets being in
canonical form.

Random formulas over Atomic, Equal with unary-function terms, Not, And, Or,
Exists, Forall and QStruct nodes with side formulas are evaluated on random
structures of sizes 0-5, under every assignment of their free variables, and
random structure quantifiers of the eval-sweep shape, with their counting
translations, on structures of sizes 0-6, and random structure quantifiers
built on a target that is not in canonical form.  The verdict must be both
references' and `oracles.oracle_eval`'s, and so must the error raised, if
any.  The tests after them pin what the generator must get right beyond
random input: errors raised only when a table is read and with the
structure's own message, symbol and variable names that are Python syntax,
and formulas nested deeper than Python's parser nests brackets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_eval
from structlogic.cli import main
from structlogic.errors import DomainError, SignatureError
from structlogic.formats import print_structure, print_theory
from structlogic.semantics import elem_F, solution_set
from structlogic.semantics import eval as ev
from structlogic.structures import FiniteStructure, canonical_key, decorated, reduct, relabel
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
    Theory,
    Var,
    free_vars,
    qstruct,
    scopes,
    subformula_closure,
)
from structlogic.translate import qstruct_to_counting
from structlogic.vocab import Vocabulary

# ---------------------------------------------------------------------------
# the recursive interpreter the closure compiler replaced


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
    return reference_matches(n, phi.target, sets[0], sets[1:])


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


@lru_cache(maxsize=100_000)
def reference_matches(n, target, main, sides):
    """Whether main, decorated by sides, is an induced copy of the target."""
    if len(main) != target.size or not all(side <= main for side in sides):
        return False
    base = reduct(n, target.base.vocab)
    if not base.is_closed_subset(main):
        return False
    return canonical_key(decorated(base.induced(main), sides)) == canonical_key(target)


# ---------------------------------------------------------------------------
# the closure compiler the generated functions replaced


def closure_eval(n, phi, env):
    return _closure(phi)(n, env)


def _closure(phi):
    """phi's closure (structure, assignment) -> bool, compiled once and kept on phi."""
    try:
        return phi._reference_closure
    except AttributeError:
        pass
    test = _compile_closure(phi)
    object.__setattr__(phi, "_reference_closure", test)
    return test


def _row(names):
    """A function from an assignment to the tuple of its values at names."""
    if len(names) == 1:
        (name,) = names
        return lambda env: (env[name],)
    return itemgetter(*names) if names else lambda env: ()


def _closure_term(t):
    if isinstance(t, Var):
        name = t.name
        return lambda n, env: env[name]
    fun = t.fun
    if all(isinstance(a, Var) for a in t.args):
        row = _row(tuple(a.name for a in t.args))
        return lambda n, env: n.apply(fun, row(env))
    args = tuple(map(_closure_term, t.args))
    return lambda n, env: n.apply(fun, tuple([a(n, env) for a in args]))


def _compile_closure(phi):
    if isinstance(phi, Atomic):
        rel = phi.rel
        if all(isinstance(t, Var) for t in phi.terms):
            row = _row(tuple(t.name for t in phi.terms))
            return lambda n, env: row(env) in n.rel(rel)
        terms = tuple(map(_closure_term, phi.terms))
        return lambda n, env: tuple([t(n, env) for t in terms]) in n.rel(rel)
    if isinstance(phi, Equal):
        left, right = _closure_term(phi.left), _closure_term(phi.right)
        return lambda n, env: left(n, env) == right(n, env)
    if isinstance(phi, Not):
        body = _closure(phi.body)
        return lambda n, env: not body(n, env)
    if isinstance(phi, (And, Or)):
        # the first item equal to stop decides; every closure returns a bool
        items, stop = tuple(map(_closure, phi.items)), isinstance(phi, Or)

        def junction(n, env):
            for item in items:
                if item(n, env) is stop:
                    return stop
            return not stop

        return junction
    if not isinstance(phi, (Exists, Forall, QStruct)):
        raise TypeError(f"not a formula: {phi!r}")
    names = tuple(sorted(free_vars(phi)))
    row = _row(names)
    if isinstance(phi, QStruct):
        return _compile_closure_qstruct(phi, names, row)
    var, body, stop = phi.var, _closure(phi.body), isinstance(phi, Exists)

    def sweep(n, values):
        env = dict(zip(names, values))
        for e in n.elements:
            env[var] = e
            if body(n, env) is stop:
                return stop
        return not stop

    return lambda n, env: _closure_binder(n, sweep, row(env))


def _compile_closure_qstruct(phi, names, row):
    slots, target = scopes(phi), phi.target
    vocab = target.base.vocab
    checked = None  # the last structure vocabulary the target's was checked against

    def match(n, env):
        nonlocal checked
        if n.vocab is not checked:
            if not vocab.is_subvocabulary_of(n.vocab):
                raise SignatureError(
                    "quantifier target vocabulary is not a sub-vocabulary of the structure's"
                )
            checked = n.vocab
        sets = closure_solution_sets(n, slots, tuple(zip(names, row(env))))
        return _closure_matches(n, target, sets[0], sets[1:])

    return match


@lru_cache(maxsize=100_000)
def _closure_binder(n, sweep, values):
    return sweep(n, values)


@lru_cache(maxsize=100_000)
def closure_solution_sets(n, slots, params):
    elems = n.elements
    sets = []
    for x, body in slots:
        test, env, found = _closure(body), dict(params), []
        for e in elems:
            env[x] = e
            if test(n, env):
                found.append(e)
        sets.append(frozenset(found))
    return tuple(sets)


@lru_cache(maxsize=100_000)
def _closure_matches(n, target, main, sides):
    if len(main) != target.size or not all(side <= main for side in sides):
        return False
    base = reduct(n, target.base.vocab)
    if not base.is_closed_subset(main):
        return False
    return canonical_key(decorated(base.induced(main), sides)) == canonical_key(target)


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


def _solution_sets_agree(n, phi, x, env):
    key = tuple(sorted(env.items()))
    want = outcome(lambda: reference_solution_sets(n, ((x, phi),), key)[0])
    assert outcome(lambda: closure_solution_sets(n, ((x, phi),), key)[0]) == want, (phi, x, env)
    assert outcome(solution_set, n, phi, x, env) == want, (phi, x, env)


@settings(max_examples=300, deadline=None)
@given(structures(), formulas)
def test_compiled_eval_agrees_with_the_interpreter_and_the_oracle(n, phi):
    variables = sorted(free_vars(phi))
    for env in assignments(n, variables):
        want = outcome(reference_eval, n, phi, env)
        assert outcome(closure_eval, n, phi, env) == want, (phi, env)
        assert outcome(ev, n, phi, env) == want, (phi, env)
        assert outcome(oracle_eval, n, phi, env) == want, (phi, env)
    for x in VARS:
        for env in assignments(n, [v for v in variables if v != x]):
            _solution_sets_agree(n, phi, x, env)


def _plain(inner):
    items = st.lists(inner, min_size=1, max_size=3).map(tuple)
    name = st.sampled_from(VARS)
    return st.one_of(
        inner.map(Not),
        items.map(And),
        items.map(Or),
        st.builds(Exists, name, inner),
        st.builds(Forall, name, inner),
    )


plain_formulas = st.recursive(atoms, _plain, max_leaves=3)


@settings(max_examples=120, deadline=None)
@given(structures(sizes=(0, 6)), targets(), plain_formulas, plain_formulas)
def test_structure_quantifier_and_its_counting_translation_agree(n, target, phi, psi):
    # the eval-sweep shape: main variable x, side variable y, parameters free
    # in either formula; one size past the random formulas' structures
    q = _quantifier(target, "x", "y", phi, psi, True)
    counting = qstruct_to_counting(q)
    variables = sorted(free_vars(q))
    for env in assignments(n, variables):
        want = outcome(reference_eval, n, q, env)
        assert outcome(closure_eval, n, q, env) == want, (q, env)
        assert outcome(ev, n, q, env) == want, (q, env)
        assert outcome(ev, n, counting, env) == want, (q, env)
    for x in variables:
        for env in assignments(n, [v for v in variables if v != x]):
            _solution_sets_agree(n, q, x, env)


@settings(max_examples=200, deadline=None)
@given(structures(), targets(), formulas, formulas, terms)
def test_side_formula_reads_the_parameter_value_of_the_main_variable(n, target, phi, psi, t):
    # x is bound in the main formula only: in the side formula it is the
    # quantifier's parameter, not the last element the main sweep tried
    psi = And((Atomic("R", (Var("y"), Var("x"))), Atomic("P", (t,)), psi))
    q = _quantifier(target, "x", "y", phi, psi, True)
    for env in assignments(n, sorted(free_vars(q))):
        want = outcome(reference_eval, n, q, env)
        assert outcome(closure_eval, n, q, env) == want, (q, env)
        assert outcome(ev, n, q, env) == want, (q, env)


@settings(max_examples=150, deadline=None)
@given(structures(), targets(), formulas, formulas)
def test_target_in_no_canonical_form_is_matched_up_to_isomorphism(n, target, phi, psi):
    # `qstruct` puts its target in canonical form; a node built directly on
    # the ids 9, 8, ... must still match every isomorphic copy
    base, side = target
    ids = {e: 9 - e for e in base.universe}
    moved = decorated(relabel(base, ids), ({ids[e] for e in side},))
    assert moved.key != canonical_key(moved)
    q = QStruct(moved, "x", ("y",), phi, (psi,))
    for env in assignments(n, sorted(free_vars(q))):
        want = outcome(reference_eval, n, q, env)
        assert outcome(closure_eval, n, q, env) == want, (q, env)
        assert outcome(ev, n, q, env) == want, (q, env)


# ---------------------------------------------------------------------------
# errors, each raised as the interpreter raised it, and only when it did

LINE = FiniteStructure(
    Vocabulary({"R": 2}, {"f": 1}),
    range(3),
    {"R": {(0, 1), (1, 2)}},
    {"f": {(0,): 1, (1,): 2, (2,): 2}},
)


def _both(phi, env, n=LINE):
    want = outcome(reference_eval, n, phi, env)
    assert outcome(closure_eval, n, phi, env) == want
    return outcome(ev, n, phi, env), want


def message(fn, *args):
    """The type and text of the error fn raises."""
    with pytest.raises(Exception) as caught:
        fn(*args)
    return type(caught.value), str(caught.value)


def test_a_table_the_structure_lacks_is_read_only_when_needed():
    # S is no symbol of either structure: the empty universe never reaches
    # it, and the first disjunct decides before it is read
    empty = FiniteStructure(Vocabulary({"R": 2}), range(0))
    assert _both(Exists("y", Atomic("S", (Var("y"), Var("y")))), {}, empty) == (False, False)
    either = Or((Equal(Var("x"), Var("x")), Atomic("S", (Var("x"),))))
    assert _both(either, {"x": 0}) == (True, True)
    unknown = Forall("y", Equal(App("g", (Var("y"),)), Var("y")))
    assert _both(unknown, {}, empty) == (True, True)
    want = message(LINE.apply, "g", (0,))
    assert want[0] is SignatureError
    assert message(ev, LINE, unknown, {}) == want
    assert message(reference_eval, LINE, unknown, {}) == want


def test_arity_mismatched_application_raises_the_structures_message():
    # f is unary; the message is FiniteStructure.apply's for the same row
    want = message(LINE.apply, "f", (1, 1))
    assert want[0] is DomainError
    for phi in (
        Equal(App("f", (Var("x"), Var("x"))), Var("x")),
        Atomic("R", (Var("x"), App("f", (Var("x"), Var("x"))))),
        Exists("y", Equal(App("f", (Var("x"), Var("x"))), Var("y"))),
    ):
        assert message(ev, LINE, phi, {"x": 1}) == want
        assert message(reference_eval, LINE, phi, {"x": 1}) == want
        assert message(closure_eval, LINE, phi, {"x": 1}) == want


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


# ---------------------------------------------------------------------------
# names that are Python syntax: the generated source must not contain them

ODD_VOCAB = Vocabulary({"if": 2, "a-b": 1}, {"__import__": 1})
ODD = FiniteStructure(
    ODD_VOCAB,
    range(4),
    {"if": {(0, 1), (1, 2), (2, 3), (3, 3)}, "a-b": {(0,), (2,)}},
    {"__import__": {(0,): 1, (1,): 0, (2,): 2, (3,): 3}},
)


def _odd_sentences():
    step = App("__import__", (Var("x.y"),))
    edge = Atomic("if", (Var("x.y"), Var("if")))
    target = decorated(
        FiniteStructure(Vocabulary({"if": 2}), range(2), {"if": {(0, 1)}}), ({1},)
    )
    q = qstruct(
        target,
        "a-b",
        ("__import__",),
        Or((Equal(Var("a-b"), Var("x.y")), Atomic("if", (Var("x.y"), Var("a-b"))))),
        (Not(Equal(Var("__import__"), Var("x.y"))),),
    )
    return (
        Forall("x.y", Or((Exists("if", And((edge, Not(Atomic("a-b", (Var("if"),)))))), q))),
        Forall("x.y", Or((Atomic("a-b", (step,)), Equal(step, Var("x.y")), q))),
    )


def _reference_elem(n1, n2, fragment):
    return all(
        reference_eval(n1, phi, env) == reference_eval(n2, phi, env)
        for phi in fragment
        for env in assignments(n1, sorted(free_vars(phi)))
    )


def test_symbol_and_variable_names_that_are_python_syntax():
    fragment = subformula_closure(_odd_sentences())
    for part in (ODD, ODD.induced({0, 1, 3}), ODD.induced({2, 3})):
        for phi in fragment:
            for env in assignments(part, sorted(free_vars(phi))):
                want = outcome(reference_eval, part, phi, env)
                assert outcome(closure_eval, part, phi, env) == want, (phi, env)
                assert outcome(ev, part, phi, env) == want, (phi, env)
        assert elem_F(part, ODD, fragment).ok == _reference_elem(part, ODD, fragment)


def test_elem_command_on_names_that_are_python_syntax(tmp_path, capsys):
    theory = Theory("odd", ODD_VOCAB, _odd_sentences())
    fragment = subformula_closure(theory)
    paths = {}
    for label, text in (
        ("theory", print_theory(theory)),
        ("member", print_structure(ODD)),
        ("true", print_structure(ODD.induced({0, 1, 3}))),
        ("false", print_structure(ODD.induced({2, 3}))),
    ):
        paths[label] = tmp_path / f"{label}.sexp"
        paths[label].write_text(text + "\n", encoding="utf-8")
    for part, n in (("true", ODD.induced({0, 1, 3})), ("false", ODD.induced({2, 3}))):
        want = _reference_elem(n, ODD, fragment)
        assert want == (part == "true")
        code = main(["elem", str(paths[part]), str(paths["member"]), str(paths["theory"])])
        assert code == (0 if want else 1)
        assert capsys.readouterr().out.splitlines()[0] == f"verdict {str(want).lower()}"


# ---------------------------------------------------------------------------
# nesting deeper than Python's parser allows brackets (200)


def _chain(depth, kinds):
    """A formula nested depth deep, cycling through kinds of node around R(x, y)."""
    phi = Atomic("R", (Var("x"), Var("y")))
    for i in range(depth):
        var = "x" if i % 8 < 4 else "y"
        kind = kinds[i % len(kinds)]
        if kind == "E":
            phi = Exists(var, phi)
        elif kind == "A":
            phi = Forall(var, phi)
        elif kind == "&":
            phi = And((phi, Atomic("R", (Var("y"), Var("x")))))
        elif kind == "|":
            phi = Or((Atomic("R", (Var("x"), Var("y"))), phi))
        else:
            phi = Not(phi)
    return phi


def _binders_in_one_loop_nest(depth):
    """depth Exists, each over a body that reads every variable bound above it,
    so all of them are inlined into one expression; the first element wins."""
    names = [f"v{i}" for i in range(depth)]
    either = Or((Atomic("R", (Var("x"), Var("y"))), Equal(Var("x"), Var("x"))))
    body = And((*(Equal(Var(v), Var(v)) for v in names), either))
    for v in reversed(names):
        body = Exists(v, body)
    return body


def _nested_terms(depth):
    term = Var("x")
    for _ in range(depth):
        term = App("f", (term,))
    return Equal(term, Var("y"))


@pytest.mark.parametrize(
    "phi",
    [
        _chain(300, "~"),
        _chain(301, "~"),
        _chain(100, "E&|~"),
        _chain(100, "A~|&"),
        _chain(200, "E"),
        _chain(200, "&|"),
        _binders_in_one_loop_nest(200),
        _nested_terms(200),
    ],
    ids=["not-300", "not-301", "mixed-100", "mixed-forall-100", "exists-200", "and-or-200",
         "loop-nest-200", "terms-200"],
)
def test_formulas_nested_past_the_bracket_limit_evaluate(phi):
    # the closure compiler evaluated all of these; the interpreter, three
    # frames per binder, runs out of stack on the 200-deep binder chain
    for env in assignments(LINE, ["x", "y"]):
        assert ev(LINE, phi, env) == closure_eval(LINE, phi, env), env


def test_elem_command_on_a_formula_nested_1000_deep_is_an_input_error(tmp_path, capsys):
    member = tmp_path / "member.sexp"
    member.write_text(print_structure(LINE) + "\n", encoding="utf-8")
    part = tmp_path / "part.sexp"
    part.write_text(print_structure(LINE.induced({2})) + "\n", encoding="utf-8")
    body = "(not " * 1000 + "(rel R x y)" + ")" * 1000
    theory = tmp_path / "deep.sexp"
    sentence = f"(sentence (forall x (forall y {body})))"
    theory.write_text(
        f"(theory (name deep) (vocab (rel R 2) (fun f 1)) {sentence})\n", encoding="utf-8"
    )
    assert main(["elem", str(part), str(member), str(theory)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply to process\n"
