from __future__ import annotations

import pytest

from structlogic.axiomatizer import (
    closure_relation_name,
    emit_aq_theory,
    expanded_vocabulary,
    functorial_expansion,
    galois_morleyization,
    tarski_specialize,
    tarski_universal_theory,
    verify_presentation,
)
from structlogic.classspec import Caps, DefinedClass, ExplicitClass
from structlogic.corpus import BUILDERS, SIZE_CAP, bare_set, chain
from structlogic.errors import (
    EmissionError,
    IntersectionFailure,
    SignatureError,
    UniversalityError,
)
from structlogic.semantics import enumerate_models, models
from structlogic.structures import FiniteStructure, canonical_key, normalize, reduct
from structlogic.syntax import (
    UNBOUNDED,
    Theory,
    audit_formula,
    is_forall_qstruct,
    subformula_closure,
)
from structlogic.vocab import Vocabulary

CAPS3 = Caps(size=3)
GOOD_CLASSES = ("linear-orders", "triangle-free", "frozen-predicate", "bounded-blocks")


def lin():
    return BUILDERS["linear-orders"]()


def test_expanded_vocabulary_adds_graded_relations():
    v = expanded_vocabulary(Vocabulary({"lt": 2}), 2)
    assert set(v.relation_names()) == {"lt", "cl0", "cl1", "cl2"}
    assert v.rel_arity("cl0") == 1 and v.rel_arity("cl2") == 3


def test_expanded_vocabulary_name_collision():
    with pytest.raises(SignatureError):
        expanded_vocabulary(Vocabulary({closure_relation_name(1): 2}), 2)


def test_functorial_expansion_tracks_closures():
    emap = functorial_expansion(lin(), caps=CAPS3)
    c3_plus = emap.expand(chain(3))
    # membership in the closure of a point: everything at or below it
    assert c3_plus.rel("cl1") == frozenset(
        (a, b) for b in range(3) for a in range(3) if a <= b
    )
    # empty seed closes to the empty order: no cl0 facts
    assert c3_plus.rel("cl0") == frozenset()
    assert emap.restrict(c3_plus) == chain(3)


def test_functorial_expansion_preserves_order():
    emap = functorial_expansion(lin(), caps=CAPS3)
    c3 = chain(3)
    seg = c3.induced({0, 1})
    assert emap.expand(seg).is_substructure_of(emap.expand(c3))


def test_expansion_embedding_does_not_imply_strong():
    # the {1,2} suborder embeds expansion-wise yet is not an initial segment
    emap = functorial_expansion(lin(), caps=CAPS3)
    c3 = chain(3)
    sub = c3.induced({1, 2})
    assert emap.expand(sub).is_substructure_of(emap.expand(c3))
    assert not lin().le(sub, c3)


def test_functorial_expansion_refuses_broken_spec():
    with pytest.raises(IntersectionFailure):
        functorial_expansion(BUILDERS["broken-intersections"](), caps=Caps(size=4))


def test_emit_linear_orders_shape():
    theory, catalog = emit_aq_theory(lin(), caps=CAPS3)
    assert len(theory.sentences) == 16
    for s in theory.sentences:
        assert is_forall_qstruct(s).ok
    counts = catalog.counts()
    assert counts["0,0"] == 1
    assert counts["1,1"] == 6


def test_pair_catalog_shapes():
    _, catalog = emit_aq_theory(lin(), caps=CAPS3)
    shapes = sorted(
        (e.target.base.size, len(e.target.subsets[0])) for e in catalog.get(1, 1)
    )
    assert shapes == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    (empty_entry,) = catalog.get(0, 0)
    assert empty_entry.target.base.size == 0
    assert empty_entry.witness == ()


def test_catalog_witness_generates_the_anchor_closure():
    emap = functorial_expansion(lin(), caps=CAPS3)
    _, catalog = emit_aq_theory(lin(), caps=CAPS3)
    for m, k in ((1, 1), (2, 1)):
        for entry in catalog.get(m, k):
            base = entry.target.base
            reverted = emap.restrict(base)
            assert lin().contains(reverted)
            # the witness tuple's prefix closure is the designated subset
            from structlogic.closure import cl

            prefix = cl(reverted, set(entry.witness[:m]), lin(), CAPS3).structure
            assert frozenset(prefix.universe) == entry.target.subsets[0]
            whole = cl(reverted, set(entry.witness), lin(), CAPS3).structure
            assert frozenset(whole.universe) == base.universe


@pytest.mark.parametrize("name", GOOD_CLASSES)
@pytest.mark.parametrize("size", [2, 3])
def test_emitted_sentences_stay_inside_their_vocabulary(name, size):
    theory, _ = emit_aq_theory(BUILDERS[name](), caps=Caps(size=size))
    for s in theory.sentences:
        audit_formula(s, theory.vocabulary)


def test_emit_empty_class_is_contradictory():
    empty = ExplicitClass("void", (), frozenset())
    theory, catalog = emit_aq_theory(empty, caps=Caps(size=2))
    assert catalog.counts() == {}
    assert list(enumerate_models(theory, theory.vocabulary, 2, up_to_iso=True)) == []


def test_emit_presents_the_class_of_the_empty_structure():
    spec = ExplicitClass("only-empty", (FiniteStructure(Vocabulary({"R": 2}), ()),), frozenset())
    theory, catalog = emit_aq_theory(spec, caps=CAPS3)
    assert catalog.counts() == {"0,0": 1}
    assert verify_presentation(spec, theory, caps=CAPS3, catalog=catalog).ok
    # one point on which every sentence but the empty-universe one holds:
    # every closure set is everything except that of the empty tuple
    vocab = theory.vocabulary
    point = FiniteStructure(
        vocab,
        range(1),
        {
            name: set() if name == closure_relation_name(0) else {(0,) * vocab.rel_arity(name)}
            for name in vocab.relation_names()
        },
    )
    assert not models(point, theory, UNBOUNDED)
    rest = Theory(theory.name, vocab, theory.sentences[:-1])
    assert models(point, rest, UNBOUNDED)


def test_verify_presentation_linear_orders_caps3():
    spec = lin()
    theory, catalog = emit_aq_theory(spec, caps=CAPS3)
    report = verify_presentation(spec, theory, caps=CAPS3, catalog=catalog)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "models-satisfy-theory",
        "order-preserved",
        "membership",
        "order-reflected",
    ]


def test_verify_presentation_catches_dropped_disjunct():
    from structlogic.syntax import Forall, Or

    spec = lin()
    theory, catalog = emit_aq_theory(spec, caps=CAPS3)
    mutated = []
    cut = False
    for s in theory.sentences:
        body = s
        while isinstance(body, Forall):
            body = body.body
        if not cut and isinstance(body, Or) and len(body.items) > 1:
            pruned = Or(body.items[1:])
            rebuilt = pruned
            prefix = []
            probe = s
            while isinstance(probe, Forall):
                prefix.append(probe.var)
                probe = probe.body
            for var in reversed(prefix):
                rebuilt = Forall(var, rebuilt)
            mutated.append(rebuilt)
            cut = True
        else:
            mutated.append(s)
    assert cut
    bad = Theory(theory.name, theory.vocabulary, tuple(mutated))
    report = verify_presentation(spec, bad, caps=CAPS3, catalog=catalog)
    first = report.checks[0]
    assert first.name == "models-satisfy-theory"
    assert not first.ok


def test_tarski_universal_theory_triangle_free():
    spec = BUILDERS["triangle-free"]()
    theory = tarski_universal_theory(spec, caps=Caps(size=3))
    produced = {
        canonical_key(m)
        for m in enumerate_models(theory, theory.vocabulary, 3, up_to_iso=True)
    }
    wanted = {canonical_key(m) for m in spec.members(3)}
    assert produced == wanted


def test_tarski_universal_theory_requires_relational():
    fun_spec = DefinedClass(
        "fun",
        Theory("t", Vocabulary(functions={"f": 1}), ()),
        UNBOUNDED,
        3,
        hereditary=False,
    )
    with pytest.raises(SignatureError):
        tarski_universal_theory(fun_spec, caps=Caps(size=3))


def test_tarski_universal_theory_rejects_non_closed():
    spec = ExplicitClass(
        "holed", (bare_set(2),), frozenset()
    )  # lacks the 1-point substructure
    with pytest.raises(UniversalityError):
        tarski_universal_theory(spec, caps=Caps(size=3))


def test_tarski_specialize_matches_class():
    spec = BUILDERS["triangle-free"]()
    caps = Caps(size=3)
    emitted, catalog = emit_aq_theory(spec, caps=caps)
    specialized = tarski_specialize(emitted, catalog, spec.theory.vocabulary)
    produced = {
        canonical_key(m)
        for m in enumerate_models(specialized, spec.theory.vocabulary, 3, up_to_iso=True)
    }
    wanted = {canonical_key(m) for m in spec.members(3)}
    assert produced == wanted


def test_tarski_specialize_presents_the_class_of_the_empty_structure():
    spec = ExplicitClass("only-empty", (bare_set(0),))
    emitted, catalog = emit_aq_theory(spec, caps=CAPS3)
    specialized = tarski_specialize(emitted, catalog, spec.vocabulary)
    found = list(enumerate_models(specialized, spec.vocabulary, 3, up_to_iso=True))
    assert [m.size for m in found] == [0]


def test_tarski_specialize_refuses_the_empty_class():
    # the empty structure satisfies every universal theory, so no universal
    # theory presents the class with no members
    spec = ExplicitClass("void", (), frozenset())
    emitted, catalog = emit_aq_theory(spec, caps=CAPS3)
    with pytest.raises(EmissionError, match="empty disjunction"):
        tarski_specialize(emitted, catalog, spec.vocabulary)


def test_galois_morleyization_linear_orders():
    mmap, report = galois_morleyization(lin(), arity_cap=3, caps=CAPS3)
    assert report.ok
    expanded = mmap.expand(chain(2))
    gt_names = [n for n in expanded.vocab.relation_names() if n.startswith("gt")]
    assert gt_names
    # anchored-type predicates hold of the tuples realizing each type
    spec = lin()
    for n in spec.members(3):
        plus = mmap.expand(n)
        for name in gt_names:
            for row in plus.rel(name):
                assert set(row) <= n.universe


def test_galois_morleyization_reports_model_completeness():
    _, report = galois_morleyization(lin(), arity_cap=3, caps=CAPS3)
    names = [c.name for c in report.checks]
    assert "model-completeness" in names
