from __future__ import annotations

import random
import re
from types import FunctionType

import pytest

from genpool import BIN_VOCAB, FUN_VOCAB, qstruct_pool
from oracles import oracle_eval
from structlogic.axiomatizer import tarski_universal_theory
from structlogic.classspec import Caps
from structlogic.corpus import BUILDERS, bare_set
from structlogic.errors import (
    ArityError,
    AssignmentError,
    CapacityError,
    DomainError,
    KappaError,
    SignatureError,
)
from structlogic.semantics import (
    MAX_ELEM_FREE_VARS,
    _sweep,
    _swept,
    elem_F,
    elem_F_star,
    enumerate_models,
    models,
    solution_set,
)
from structlogic.semantics import eval as ev
from structlogic.structures import (
    FiniteStructure,
    decorated,
    enumerate_hereditary,
    enumerate_structures,
    normalize,
)
from structlogic.syntax import (
    UNBOUNDED,
    And,
    App,
    Fragment,
    Atomic,
    Equal,
    Exists,
    Forall,
    KappaThreshold,
    Not,
    Or,
    Theory,
    Var,
    audit_formula,
    qstruct,
    subformula_closure,
)
from structlogic.vocab import Vocabulary

LT = Vocabulary({"lt": 2})
FUN = Vocabulary(functions={"f": 1})


def chain(n):
    return FiniteStructure(
        LT, range(n), {"lt": {(i, j) for i in range(n) for j in range(n) if i < j}}
    )


def lt(a, b):
    return Atomic("lt", (Var(a), Var(b)))


def exists_n(n):
    # the guarded form of "the elements below x form an n-chain"
    return qstruct(chain(n), "y", (), lt("y", "x"), ())


def test_quantifier_matches_initial_segment():
    c3 = chain(3)
    assert ev(c3, exists_n(2), {"x": 2})
    assert not ev(c3, exists_n(2), {"x": 1})
    assert ev(c3, exists_n(0), {"x": 0})


def test_empty_target_counts_universe():
    q = qstruct(chain(0), "x", (), Equal(Var("x"), Var("x")), ())
    assert ev(chain(0), q, {})
    assert not ev(chain(1), q, {})
    assert not ev(chain(3), q, {})


def test_at_least_two_encoding():
    # "not iso to any chain shorter than 2" forces size >= 2
    q = And(
        tuple(
            Not(qstruct(chain(n), "x", (), Equal(Var("x"), Var("x")), ()))
            for n in range(2)
        )
    )
    assert ev(chain(3), q, {})
    assert ev(chain(2), q, {})
    assert not ev(chain(1), q, {})


def test_side_sets_must_map_onto_designated_subsets():
    c3 = chain(3)
    # two-chain target whose designated subset is the smaller point
    target = decorated(chain(2), (frozenset({0}),))
    good = qstruct(target, "x", ("y",), lt("x", "z"), (qstruct(chain(0), "w", (), lt("w", "y"), ()),))
    # below z=2 sit {0,1}; elements with no predecessor: {0} -> maps onto subset
    assert ev(c3, good, {"z": 2})
    flipped = decorated(chain(2), (frozenset({1}),))
    bad = qstruct(flipped, "x", ("y",), lt("x", "z"), (qstruct(chain(0), "w", (), lt("w", "y"), ()),))
    assert not ev(c3, bad, {"z": 2})


def test_side_set_containment_is_clause_a():
    target = decorated(chain(1), (frozenset({0}),))
    # side set {z} need not sit inside the main set when z is above everything
    q = qstruct(target, "x", ("y",), lt("x", "z"), (Equal(Var("y"), Var("z")),))
    assert not ev(chain(2), q, {"z": 1})


def test_non_function_closed_solution_set_is_false():
    # f wraps 0 -> 1 -> 1; the set {0} is not closed under f
    n = FiniteStructure(FUN, range(2), {}, {"f": {(0,): 1, (1,): 1}})
    one_point = FiniteStructure(FUN, range(1), {}, {"f": {(0,): 0}})
    q = qstruct(one_point, "x", (), Equal(Var("x"), Var("z")), ())
    assert not ev(n, q, {"z": 0})
    assert ev(n, q, {"z": 1})


def test_main_set_past_the_labelling_cap_is_false():
    # ten solutions can never carry a two-element target; nothing is labelled
    q = qstruct(bare_set(2), "x", (), Equal(Var("x"), Var("x")), ())
    assert not ev(bare_set(10), q, {})
    assert not oracle_eval(bare_set(10), q, {})


def _random_structures(vocab, count, size, rng):
    elems = range(size)
    if vocab.relations:
        pairs = [(a, b) for a in elems for b in elems]
        return [
            FiniteStructure(vocab, elems, {"R": {p for p in pairs if rng.randrange(2)}})
            for _ in range(count)
        ]
    return [
        FiniteStructure(vocab, elems, {}, {"f": {(a,): rng.randrange(size) for a in elems}})
        for _ in range(count)
    ]


def test_quantifier_pools_agree_with_oracle_at_size_5():
    rng = random.Random(5)
    total = 0
    for vocab, seed in ((BIN_VOCAB, 11), (FUN_VOCAB, 13)):
        pool = qstruct_pool(vocab, 120, seed=seed)
        for s in _random_structures(vocab, 12, 5, rng):
            for q in pool:
                for z in sorted(s.universe):
                    assert ev(s, q, {"z": z}) == oracle_eval(s, q, {"z": z}), (q, z)
                    total += 1
    assert total == 14400


def _type_disjunction(q, targets_by_size, rng):
    """q or'ed with 2-3 quantifiers over the same slots, each target of another size."""
    sizes = rng.sample([k for k in range(5) if k != q.target.size], rng.choice((2, 3)))
    disjuncts = [q]
    for k in sizes:
        base = rng.choice(targets_by_size[k])
        subsets = tuple(
            frozenset(e for e in base.universe if rng.randrange(2)) for _ in q.psis
        )
        disjuncts.append(qstruct(decorated(base, subsets), q.var, q.yvars, q.phi, q.psis))
    rng.shuffle(disjuncts)
    return Or(tuple(disjuncts))


def test_type_disjunctions_agree_with_oracle_at_size_5():
    # the disjuncts share one solution-set entry per z; each must still be
    # matched against its own target
    rng = random.Random(7)
    total = 0
    for vocab, seed in ((BIN_VOCAB, 11), (FUN_VOCAB, 13)):
        targets_by_size = {k: [] for k in range(5)}
        for t in enumerate_structures(vocab, 3, up_to_iso=True):
            targets_by_size[t.size].append(t)
        targets_by_size[4] = _random_structures(vocab, 8, 4, rng)
        pool = qstruct_pool(vocab, 120, seed=seed)
        disjunctions = [_type_disjunction(q, targets_by_size, rng) for q in pool]
        for s in _random_structures(vocab, 6, 5, rng):
            for d in disjunctions:
                for z in sorted(s.universe):
                    assert ev(s, d, {"z": z}) == oracle_eval(s, d, {"z": z}), (d, z)
                    total += 1
    assert total == 7200


class CountedMemo(dict):
    """A structure's memo that counts the lookups it answers and its sweep entries."""

    hits = 0

    def get(self, key):
        found = dict.get(self, key)
        self.hits += found is not None
        return found

    def sweeps(self) -> int:
        """The entries `_swept` added: those keyed by a generated sweep."""
        return sum(1 for key in self if key and isinstance(key[0], FunctionType))


def test_type_disjunction_builds_its_sets_once_per_parameter_value():
    rows = {(0, 1), (1, 2), (2, 0), (3, 4)}
    n = FiniteStructure(BIN_VOCAB, range(5), {"R": rows})
    n.memo = memo = CountedMemo()
    main = Atomic("R", (Var("x"), Var("z")))
    side = Not(Equal(Var("y"), Var("z")))
    targets = [decorated(bare_set(k), (frozenset(range(k)),)) for k in range(2, 6)]
    disj = Or(tuple(qstruct(t, "x", ("y",), main, (side,)) for t in targets))
    before = memo.sweeps()
    for z in sorted(n.universe):
        assert not ev(n, disj, {"z": z})
    assert memo.sweeps() - before == 5


def test_elem_F_star_reads_the_sets_elem_F_built():
    c = chain(4)
    part = c.induced({0, 1})
    memos = part.memo, c.memo = CountedMemo(), CountedMemo()
    frag = subformula_closure(
        Theory("t", LT, (Forall("x", Or(tuple(exists_n(k) for k in range(4)))),))
    )

    def counts():
        return sum(map(len, memos)), sum(memo.hits for memo in memos)

    before = counts()
    assert elem_F(part, c, frag).ok
    after_plain = counts()
    assert after_plain[0] > before[0]
    assert elem_F_star(part, c, frag).ok
    after_star = counts()
    assert after_star[0] == after_plain[0]
    assert after_star[1] > after_plain[1]


def test_eval_agrees_with_oracle_spot():
    c3 = chain(3)
    for x in range(3):
        for n in range(3):
            q = exists_n(n)
            assert ev(c3, q, {"x": x}) == oracle_eval(c3, q, {"x": x})


def test_assignment_errors():
    with pytest.raises(AssignmentError):
        ev(chain(2), lt("x", "z"), {"x": 0})
    with pytest.raises(DomainError):
        ev(chain(2), lt("x", "z"), {"x": 0, "z": 9})


def test_solution_set_checks_parameters_like_eval():
    # the checks run once, before any element is tried, so an empty universe
    # has no way around them
    for n in (chain(0), chain(2)):
        with pytest.raises(DomainError):
            solution_set(n, lt("x", "z"), "x", {"z": 5})
        with pytest.raises(AssignmentError):
            solution_set(n, lt("x", "z"), "x", {})
    with pytest.raises(KappaError):
        solution_set(chain(0), exists_n(2), "x", {}, KappaThreshold.finite(2))
    # the solved-for variable's own value, if given, is overridden, not checked
    assert solution_set(chain(2), lt("x", "z"), "x", {"x": 7, "z": 1}) == frozenset({0})


def test_kappa_gates_targets():
    q = exists_n(2)
    with pytest.raises(KappaError):
        ev(chain(3), q, {"x": 2}, KappaThreshold.finite(2))
    assert ev(chain(3), q, {"x": 2}, KappaThreshold.finite(3))


def test_solution_set_matches_eval_per_element():
    c3 = chain(3)
    assert solution_set(c3, lt("y", "x"), "y", {"x": 2}) == frozenset({0, 1})
    assert solution_set(c3, Equal(Var("y"), Var("y")), "y", {}) == frozenset({0, 1, 2})
    q = exists_n(1)
    expected = frozenset(e for e in c3.universe if ev(c3, q, {"x": e}))
    assert solution_set(c3, q, "x", {}) == expected


def test_monotone_failure_when_solution_set_reaches_threshold():
    # solution set of size >= k can never match a target smaller than k
    for n in range(1, 5):
        struct = chain(n)
        for k in range(1, n + 1):
            for tgt in range(k):
                q = qstruct(chain(tgt), "y", (), Equal(Var("y"), Var("y")), ())
                if struct.size >= k:
                    assert not ev(struct, q, {})


LIN_THEORY = Theory(
    "lin",
    LT,
    (
        Forall("x", Not(lt("x", "x"))),
        Forall(
            "x",
            Forall(
                "y",
                Forall("z", Or((Not(lt("x", "y")), Not(lt("y", "z")), lt("x", "z")))),
            ),
        ),
        Forall("x", Forall("y", Or((lt("x", "y"), lt("y", "x"), Equal(Var("x"), Var("y")))))),
    ),
)


def test_models_and_enumerate_models():
    assert models(chain(3), LIN_THEORY)
    cyc = FiniteStructure(LT, range(3), {"lt": {(0, 1), (1, 2), (2, 0)}})
    assert not models(cyc, LIN_THEORY)
    found = list(enumerate_models(LIN_THEORY, LT, 3, up_to_iso=True))
    assert found == [chain(0), chain(1), chain(2), chain(3)]
    assert models(chain(2), Theory("empty", LT, ()))


def test_contradictory_pair_has_no_models():
    t = Theory(
        "contra",
        LT,
        (
            qstruct(chain(0), "x", (), Equal(Var("x"), Var("x")), ()),
            qstruct(chain(1), "x", (), Not(Equal(Var("x"), Var("x"))), ()),
        ),
    )
    assert list(enumerate_models(t, LT, 3, up_to_iso=True)) == []


def test_enumerate_models_size_zero():
    assert [s.size for s in enumerate_models(LIN_THEORY, LT, 0)] == [0]


def _filtered(t: Theory, vocab: Vocabulary, max_size: int, up_to_iso: bool = True):
    stream = enumerate_structures(vocab, max_size, up_to_iso=up_to_iso)
    return [s for s in stream if models(s, t)]


# plain universal, but over a function vocabulary: filtered, not grown
FIXED_POINTS = Theory("fixed", FUN, (Forall("x", Equal(App("f", (Var("x"),)), Var("x"))),))


def _triangle_free_universal() -> Theory:
    return tarski_universal_theory(BUILDERS["triangle-free"](), Caps(size=3))


@pytest.mark.parametrize(
    "theory, vocab, max_size, up_to_iso",
    [
        (lambda: LIN_THEORY, LT, 4, True),
        (_triangle_free_universal, Vocabulary({"E": 2}), 4, True),
        (lambda: Theory("none", LT, ()), LT, 3, True),
        (lambda: LIN_THEORY, Vocabulary({"lt": 2, "P": 1}), 3, True),
        (lambda: LIN_THEORY, LT, 3, False),
        (lambda: FIXED_POINTS, FUN, 3, True),
    ],
    ids=[
        "linear-orders",
        "triangle-free-universal",
        "no-sentences",
        "wider-vocab",
        "raw",
        "functions",
    ],
)
def test_enumerate_models_matches_filtered_stream(theory, vocab, max_size, up_to_iso):
    t = theory()
    want = _filtered(t, vocab, max_size, up_to_iso)
    assert want
    assert list(enumerate_models(t, vocab, max_size, up_to_iso=up_to_iso)) == want


def test_enumerate_models_does_not_grow_a_structure_quantifier_theory():
    # every model has exactly two points or none, so no model has a
    # one-point model below it: growing from the empty structure finds no other
    pair = qstruct(bare_set(2), "x", (), Equal(Var("x"), Var("x")), ())
    t = Theory("pairs", Vocabulary({"R": 2}), (Forall("z", pair),))
    found = list(enumerate_models(t, max_size=3))
    assert [m.size for m in found] == [0] + [2] * 10
    assert found == _filtered(t, t.vocabulary, 3)


def test_negative_sizes_enumerate_nothing():
    for vocab, up_to_iso in ((LT, False), (LT, True), (FUN, True)):
        assert list(enumerate_structures(vocab, -1, up_to_iso=up_to_iso)) == []
    assert list(enumerate_hereditary(LT, -1, lambda s: True)) == []
    for up_to_iso in (False, True):
        assert list(enumerate_models(LIN_THEORY, LT, -1, up_to_iso=up_to_iso)) == []


FRAG = subformula_closure(
    Theory("frag", LT, (Forall("x", Or((Exists("y", lt("y", "x")), Not(Exists("y", lt("y", "x")))))),))
)


def test_elem_F_examples():
    c2 = chain(2)
    assert elem_F(c2.induced({0}), c2, FRAG).ok
    report = elem_F(c2.induced({1}), c2, FRAG)
    assert not report.ok and report.formula is not None
    # not a substructure -> distinct report kind
    other = FiniteStructure(LT, range(1), {"lt": set()})
    assert elem_F(FiniteStructure(LT, [5], {"lt": set()}), c2, FRAG).kind == "not-substructure"
    assert elem_F(other, c2, FRAG).ok  # {0} relabeled is the same induced order


def test_elem_F_star_rejects_non_initial_suborder():
    lin_frag = subformula_closure(
        Theory("t", LT, (Forall("x", Or((exists_n(0), exists_n(1), exists_n(2)))),))
    )
    c3 = chain(3)
    assert elem_F_star(c3.induced({0, 1}), c3, lin_frag).ok
    assert not elem_F_star(c3.induced({0, 2}), c3, lin_frag).ok
    assert elem_F_star(c3, c3, lin_frag).ok


def test_elem_F_star_solution_set_clause_fires_alone():
    # the only quantifier target matches neither solution set, so plain truth
    # agrees everywhere; the frozen predecessor sets still differ at x=2
    q3 = qstruct(chain(3), "y", (), lt("y", "x"), ())
    frag = subformula_closure(Theory("t", LT, (Forall("x", q3),)))
    c3 = chain(3)
    assert elem_F(c3.induced({0, 2}), c3, frag).ok
    report = elem_F_star(c3.induced({0, 2}), c3, frag)
    assert not report.ok
    assert report.kind == "solution-set-change"
    assert dict(report.assignment)["x"] == 2
    assert elem_F_star(c3.induced({0, 1}), c3, frag).ok


def test_elem_F_star_finite_kappa_skips_large_sets():
    # with threshold 1 only empty solution sets freeze, so {0,2} passes
    lin_frag = subformula_closure(
        Theory("t", LT, (Forall("x", Or((exists_n(0),))),))
    )
    c3 = chain(3)
    report = elem_F_star(c3.induced({0, 2}), c3, lin_frag, KappaThreshold.finite(1))
    assert report.ok


def test_elem_capacity_cap():
    wide = Atomic("lt", (Var("a"), Var("b")))
    many = And(
        tuple(
            Atomic("lt", (Var(f"v{i}"), Var(f"v{i + 1}"))) for i in range(MAX_ELEM_FREE_VARS + 1)
        )
    )
    frag = Fragment(frozenset({wide, many}))
    with pytest.raises(CapacityError):
        elem_F(chain(2), chain(2), frag)


def test_elem_F_raises_on_a_malformed_quantifier_free_member():
    # a quantifier-free member that fails the audit is evaluated, not skipped
    frag = Fragment(frozenset({Atomic("gt", (Var("a"), Var("b")))}))
    with pytest.raises(SignatureError, match="unknown relation symbol 'gt'"):
        elem_F(chain(2).induced({0}), chain(2), frag)


def test_a_wrong_arity_atom_raises_the_audits_arity_error():
    c = chain(2)
    atom = Atomic("lt", (Var("a"),))
    with pytest.raises(ArityError) as audit:
        audit_formula(atom, LT)
    want = re.escape(str(audit.value))
    inside_a_sweep = Forall("b", Or((lt("b", "b"), Exists("d", And((lt("a", "d"), atom))))))
    in_a_quantifier = qstruct(chain(1), "y", (), And((lt("a", "y"), atom)), ())
    for phi in (atom, inside_a_sweep, in_a_quantifier):
        with pytest.raises(ArityError, match=want):
            ev(c, phi, {"a": 0})
    with pytest.raises(ArityError, match=want):
        elem_F(c.induced({0}), c, Fragment(frozenset({atom})))
    # the table is still read only when needed, and an unknown symbol keeps its error
    assert ev(c, Or((Equal(Var("a"), Var("a")), atom)), {"a": 0})
    with pytest.raises(SignatureError):
        ev(c, Atomic("gt", (Var("a"),)), {"a": 0})


def test_alpha_variant_binders_share_one_sweep_and_its_entries():
    # binders that differ only in variable names, like the guards
    # qstruct_to_counting relativizes to each bound variable, compile to one
    # function of their parameters' values
    first = Exists("w", And((lt("u1", "w"), lt("w", "z"))))
    second = Exists("v", And((lt("u2", "v"), lt("v", "z"))))
    assert _sweep(first) is _sweep(second)
    c = chain(4)
    c.memo = memo = CountedMemo()
    # under a loop whose variable they do not use, each is swept, not inlined
    assert ev(c, Forall("t", Or((lt("t", "t"), first))), {"u1": 0, "z": 3})
    assert ev(c, Forall("t", Or((lt("t", "t"), second))), {"u2": 0, "z": 3})
    assert memo.sweeps() == 1
    # a structure quantifier in the body binds no list of its own, so they share too
    q = exists_n(1)
    guarded = [Exists(v, And((lt(v, "x"), q))) for v in ("w", "v")]
    assert _sweep(guarded[0]) is _sweep(guarded[1])
    # another shape, or the same shape over another symbol, is another sweep
    assert _sweep(first) is not _sweep(Exists("w", And((lt("w", "u1"), lt("w", "z")))))
    other_symbol = Exists("w", And((Atomic("le", (Var("u1"), Var("w"))), lt("w", "z"))))
    assert _sweep(first) is not _sweep(other_symbol)


def test_equal_sets_within_one_structure_are_one_object():
    c = chain(4)
    # the points below the top, whatever z is
    phi = And((Exists("y", lt("x", "y")), Equal(Var("z"), Var("z"))))
    sets = [solution_set(c, phi, "x", {"z": z}) for z in range(4)]
    assert sets[0] == frozenset({0, 1, 2})
    assert all(s is sets[0] for s in sets)
    assert solution_set(c, lt("x", "w"), "x", {"w": 3}) is sets[0]
    # a side set equal to the main set is the main set's object
    q = qstruct(decorated(chain(3), ({0, 1, 2},)), "x", ("y",), lt("x", "w"), (lt("y", "w"),))
    main, (side,) = _swept(c, _sweep(q), (3,))
    assert main is sets[0] and side is main
    # another structure keeps its own objects, which die with it
    other = chain(4)
    assert solution_set(other, phi, "x", {"z": 0}) == sets[0]
    assert solution_set(other, phi, "x", {"z": 0}) is not sets[0]


def test_every_memo_key_is_a_tuple():
    c = chain(4)
    q = qstruct(decorated(chain(2), ({0},)), "x", ("y",), lt("x", "z"), (lt("y", "w"),))
    phi = Forall("z", Or((Not(q), Exists("w", lt("w", "z")), exists_n(2))))
    ev(c, phi, {"w": 1, "x": 3})
    elem_F_star(c.induced({0, 1, 2}), c, subformula_closure(phi.body))
    normalize(decorated(c, ({0},)))
    assert len(c.memo) > 3
    assert all(isinstance(key, tuple) for key in c.memo)
