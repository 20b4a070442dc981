from __future__ import annotations

import itertools

import pytest

from structlogic.errors import ShapeError, SignatureError
from structlogic.formats import print_formula
from structlogic.semantics import eval as ev
from structlogic.structures import FiniteStructure, decorated, enumerate_structures, normalize
from structlogic.syntax import (
    Atomic,
    Equal,
    Exists,
    Forall,
    KappaThreshold,
    Not,
    Or,
    Var,
    free_vars,
    has_qstruct,
    is_forall_qstruct,
    qstruct,
)
from structlogic.translate import (
    eliminate_subvocab,
    qstruct_to_counting,
    scott_sentence,
    univ_gen_rewrite,
    with_subset_predicates,
)
from structlogic.vocab import Vocabulary

GRAPH = Vocabulary({"E": 2})
LT = Vocabulary({"lt": 2})


def chain(n):
    return FiniteStructure(
        LT, range(n), {"lt": {(i, j) for i in range(n) for j in range(n) if i < j}}
    )


def all_graphs(max_size):
    return list(enumerate_structures(GRAPH, max_size, up_to_iso=True))


def assignments(n, variables):
    if not variables:
        yield {}
        return
    for values in itertools.product(sorted(n.universe), repeat=len(variables)):
        yield dict(zip(variables, values))


def assert_truth_preserved(original, rewritten, structures):
    fv = sorted(free_vars(original))
    assert sorted(free_vars(rewritten)) == fv
    for n in structures:
        for env in assignments(n, fv):
            assert ev(n, original, env) == ev(n, rewritten, env), (n, env)


def test_univ_gen_rewrite_shape():
    s = Forall("z0", Forall("z1", Or((Equal(Var("z0"), Var("z1")), Atomic("E", (Var("z0"), Var("z1")))))))
    out = univ_gen_rewrite(s)
    assert is_forall_qstruct(out).ok
    assert_truth_preserved(s, out, all_graphs(3))


def test_univ_gen_rewrite_no_prefix():
    s = Not(Atomic("E", (Var("x"), Var("x"))))
    out = univ_gen_rewrite(s)
    assert is_forall_qstruct(out).ok
    # the added dummy variable quantifies vacuously over nonempty structures
    nonempty = [g for g in all_graphs(3) if g.size]
    assert_truth_preserved(s, out, nonempty)


def test_univ_gen_rewrite_rejects_quantified_matrix():
    with pytest.raises(ShapeError):
        univ_gen_rewrite(Forall("z", Exists("w", Atomic("E", (Var("w"), Var("z"))))))


def test_eliminate_subvocab_truth():
    sub = Vocabulary({"lt": 2})
    wide = Vocabulary({"lt": 2, "P": 1})
    q = qstruct(chain(2), "y", (), Atomic("lt", (Var("y"), Var("x"))), ())
    out = eliminate_subvocab(q, wide)
    assert not free_vars(out) - {"x"}
    wide_structs = list(enumerate_structures(wide, 3, up_to_iso=True))
    assert_truth_preserved(q, out, wide_structs)
    # every disjunct now carries a target over the wide vocabulary
    from structlogic.syntax import qstruct_nodes

    assert all(node.target.base.vocab == wide for node in qstruct_nodes(out))


def test_eliminate_subvocab_rejects_new_functions():
    q = qstruct(chain(1), "y", (), Equal(Var("y"), Var("x")), ())
    with pytest.raises(SignatureError):
        eliminate_subvocab(q, Vocabulary({"lt": 2}, {"f": 1}))
    with pytest.raises(SignatureError):
        # target vocabulary not contained in the requested one
        eliminate_subvocab(q, Vocabulary({"P": 1}))


def test_counting_translation_truth():
    bodies = [
        Atomic("lt", (Var("y"), Var("x"))),
        Not(Atomic("lt", (Var("x"), Var("y")))),
        Equal(Var("y"), Var("x")),
    ]
    targets = [chain(0), chain(1), chain(2)]
    structures = [chain(k) for k in range(4)] + [
        FiniteStructure(LT, range(2), {"lt": {(0, 1), (1, 0)}})
    ]
    for body in bodies:
        for target in targets:
            q = qstruct(target, "y", (), body, ())
            out = qstruct_to_counting(q)
            assert not has_qstruct(out)
            assert_truth_preserved(q, out, structures)


def test_counting_translation_with_side_set():
    target = decorated(chain(2), (frozenset({0}),))
    q = qstruct(
        target,
        "y",
        ("w",),
        Atomic("lt", (Var("y"), Var("x"))),
        (qstruct(chain(0), "u", (), Atomic("lt", (Var("u"), Var("w"))), ()),),
    )
    out = qstruct_to_counting(q)
    # the nested quantifier inside the side slot stays; the outer one is gone
    assert not isinstance(out, type(q))
    assert_truth_preserved(q, out, [chain(k) for k in range(4)])


def test_counting_translation_text_is_pinned():
    # The fresh names (v0.. for containment and counting, u0.. for diagram
    # variables renamed away) are part of the emitted text; the side formula
    # binds v0, so substituting into it must rename that binder.
    lt = lambda a, b: Atomic("lt", (Var(a), Var(b)))  # noqa: E731
    side = Forall("v0", Or((Not(lt("v0", "x")), Not(lt("v0", "w")))))
    q = qstruct(decorated(chain(2), (frozenset({0}),)), "y", ("w",), lt("y", "x"), (side,))
    assert print_formula(qstruct_to_counting(q, KappaThreshold.finite(3))) == (
        "(and (forall v0 (or (not (forall v1 (or (not (rel lt v1 x)) "
        "(not (rel lt v1 v0))))) (rel lt v0 x))) "
        "(not (exists v1 (exists v2 (exists v3 (and (not (= v1 v2)) (not (= v1 v3)) "
        "(not (= v2 v3)) (rel lt v1 x) (rel lt v2 x) (rel lt v3 x)))))) "
        "(exists u0 (and (rel lt u0 x) (exists v1 (and (rel lt v1 x) "
        "(and (not (= u0 v1)) (not (rel lt u0 u0)) (rel lt u0 v1) (not (rel lt v1 u0)) "
        "(not (rel lt v1 v1)) (forall v0 (or (not (rel lt v0 x)) (not (rel lt v0 u0)))) "
        "(not (forall v0 (or (not (rel lt v0 x)) (not (rel lt v0 v1))))) "
        "(forall v2 (or (not (rel lt v2 x)) (or (= v2 u0) (= v2 v1))))))))))"
    )


def test_scott_sentence_characterizes_up_to_iso():
    targets = [s for s in enumerate_structures(GRAPH, 3, up_to_iso=True)]
    for d in targets[:12]:
        sentence = scott_sentence(decorated(d, ()))
        assert sentence.placeholders == ()
        for n in targets[:12]:
            assert ev(n, sentence.formula, {}) == (normalize(n) == normalize(d)), (d, n)


def test_scott_sentence_with_subsets():
    base = chain(2)
    d = decorated(base, (frozenset({0}),))
    other = decorated(base, (frozenset({1}),))
    sentence = scott_sentence(d)
    assert len(sentence.placeholders) == 1
    expanded_match = with_subset_predicates(d, sentence.placeholders)
    expanded_other = with_subset_predicates(other, sentence.placeholders)
    assert ev(expanded_match, sentence.formula, {})
    assert not ev(expanded_other, sentence.formula, {})
