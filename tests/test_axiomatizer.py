from __future__ import annotations

import pytest

from structlogic import axiomatizer
from structlogic.axiomatizer import (
    CatalogEntry,
    PairCatalog,
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
from structlogic.structures import (
    DecoratedStructure,
    FiniteStructure,
    canonical_key,
    decorated,
    normalize,
    reduct,
)
from structlogic.syntax import (
    UNBOUNDED,
    Theory,
    audit_formula,
    is_forall_qstruct,
    subformula_closure,
)
from structlogic.vocab import Vocabulary

CAPS2 = Caps(size=2)
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


def test_round_trip_of_the_empty_class_renders_as_pinned():
    void = ExplicitClass("void", (), frozenset())
    theory, catalog = emit_aq_theory(void, caps=CAPS2)
    header = (
        '{"caps": {"arity_cap": 2, "pair_cap": 2, "size": 2}, '
        '"command": "verify_presentation void", "schema": "structlogic-report-v1"}\n'
        '{"check": "models-satisfy-theory", "counts": {"members": 0}, '
        '"note": "empty class: nothing to check", "status": "pass", "witnesses": []}\n'
        '{"check": "order-preserved", "counts": {"pairs": 0}, "note": "empty class", '
        '"status": "pass", "witnesses": []}\n'
    )
    tail = (
        '{"check": "order-reflected", "counts": {"pairs": 0}, "note": "empty class", '
        '"status": "pass", "witnesses": []}\n'
    )
    note = '"note": "the two contradictory sentences must have no models"'
    assert verify_presentation(void, theory, caps=CAPS2, catalog=catalog).render() == (
        header
        + '{"check": "membership", "counts": {"models-found": 0}, '
        + note
        + ', "status": "pass", "witnesses": []}\n'
        + tail
        + '{"result": "pass"}\n'
    )
    # a presentation with models fails membership with their count
    open_theory = Theory(theory.name, theory.vocabulary, ())
    assert verify_presentation(void, open_theory, caps=CAPS2, catalog=catalog).render() == (
        header
        + '{"check": "membership", "counts": {"models-found": 8265}, '
        + note
        + ', "status": "fail", "witnesses": [{"kind": "count", "label": "models", '
        + '"value": 8265}]}\n'
        + tail
        + '{"result": "fail"}\n'
    )


def test_round_trip_of_the_class_of_the_empty_structure_renders_as_pinned():
    spec = ExplicitClass("only-empty", (FiniteStructure(Vocabulary({"R": 2}), ()),), frozenset())
    theory, catalog = emit_aq_theory(spec, caps=CAPS3)
    assert verify_presentation(spec, theory, caps=CAPS3, catalog=catalog).render() == (
        '{"caps": {"arity_cap": 3, "pair_cap": 3, "size": 3}, '
        '"command": "verify_presentation only-empty", "schema": "structlogic-report-v1"}\n'
        '{"check": "models-satisfy-theory", "counts": {"members": 1, "sentences": 8}, '
        '"status": "pass", "witnesses": []}\n'
        '{"check": "order-preserved", "counts": {"pairs": 1}, "status": "pass", '
        '"witnesses": []}\n'
        '{"check": "membership", "counts": {"catalog-entries": 1}, "note": "decomposition '
        "route: coordinate-closure + full-length pair sentences force any model to be "
        "isomorphic to a cataloged target; each target re-verified as a genuine expanded "
        'member", "status": "pass", "witnesses": []}\n'
        '{"check": "order-reflected", "counts": {"model-substructure-pairs": 1}, '
        '"status": "pass", "witnesses": []}\n'
        '{"result": "pass"}\n'
    )


def _altered(catalog, key, index, change):
    """catalog with entry index of pair key replaced by change(entry)."""
    return PairCatalog(
        tuple(
            (k, tuple(change(e) if (k, i) == (key, index) else e for i, e in enumerate(es)))
            for k, es in catalog.pairs
        )
    )


def _without_a_closure_row(entry):
    """entry with its target's last cl2 row, (1 1 1) below, dropped."""
    base = entry.target.base
    rels = {name: set(base.rel(name)) for name in base.vocab.relation_names()}
    rels["cl2"].discard(max(rels["cl2"]))
    altered = FiniteStructure(base.vocab, base.universe, rels)
    return CatalogEntry(DecoratedStructure(altered, entry.target.subsets), entry.witness)


TWO_CHAIN_PLUS = (
    "(structure (vocab (rel cl0 1) (rel cl1 2) (rel cl2 3) (rel lt 2)) (universe 2) "
    "(rel cl0) (rel cl1 (0 0) (0 1) (1 1)) (rel cl2 (0 0 0) (0 0 1) (0 1 0) (0 1 1) "
    "(1 0 1) (1 1 0){}) (rel lt (0 1)))"
)

COORDINATE_2_1 = axiomatizer._reflexivity_sentence(2, 1)

# Each mutation of linear-orders' caps-2 round trip (theory, catalog), the
# catalog entries check 3 (membership) then counts, and the witness it renders.
# Entry 1 of pair (1, 1) is the expanded 2-chain with designated subset {0}
# and witness tuple (0, 1).
MEMBERSHIP_MUTATIONS = {
    "coordinate-closure sentence removed": (
        lambda t, c: (
            Theory(t.name, t.vocabulary, tuple(s for s in t.sentences if s != COORDINATE_2_1)),
            c,
        ),
        12,
        '{"kind": "missing-sentence", "label": "coordinate-closure (2, 1)", '
        '"value": "length 2, coordinate 1"}',
    ),
    "(1, 0) catalog pair emptied": (
        lambda t, c: (
            t,
            PairCatalog(tuple((k, () if k == (1, 0) else es) for k, es in c.pairs)),
        ),
        10,
        '{"kind": "missing-catalog", "label": "pair (1, 0)", "value": "no entries"}',
    ),
    "target altered": (
        lambda t, c: (t, _altered(c, (1, 1), 1, _without_a_closure_row)),
        12,
        '{"kind": "structure", "label": "catalog-target-not-expanded-member", '
        f'"value": "{TWO_CHAIN_PLUS.format("")}"}}',
    ),
    "prefix subset altered": (
        lambda t, c: (
            t,
            _altered(
                c,
                (1, 1),
                1,
                lambda e: CatalogEntry(decorated(e.target.base, [{0, 1}]), e.witness),
            ),
        ),
        12,
        '{"kind": "structure", "label": "catalog-subset-mismatch", '
        f'"value": "{TWO_CHAIN_PLUS.format(" (1 1 1)")}"}}',
    ),
    "witness tuple altered": (
        lambda t, c: (t, _altered(c, (1, 1), 1, lambda e: CatalogEntry(e.target, (0, 0)))),
        12,
        '{"kind": "structure", "label": "catalog-witness-not-generating", '
        f'"value": "{TWO_CHAIN_PLUS.format(" (1 1 1)")}"}}',
    ),
}


@pytest.mark.parametrize("mutation", sorted(MEMBERSHIP_MUTATIONS))
def test_membership_renders_the_witness_of_each_mutation(mutation):
    mutate, entries, witness = MEMBERSHIP_MUTATIONS[mutation]
    spec = lin()
    theory, catalog = mutate(*emit_aq_theory(spec, caps=CAPS2))
    report = verify_presentation(spec, theory, caps=CAPS2, catalog=catalog)
    assert [c.name for c in report.checks if not c.ok] == ["membership"]
    assert report.render().splitlines()[3] == (
        f'{{"check": "membership", "counts": {{"catalog-entries": {entries}}}, '
        '"note": "decomposition route: coordinate-closure + full-length pair sentences '
        "force any model to be isomorphic to a cataloged target; each target re-verified "
        f'as a genuine expanded member", "status": "fail", "witnesses": [{witness}]}}'
    )


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


def test_galois_morleyization_refuses_broken_intersections_with_the_witness():
    spec = BUILDERS["broken-intersections"]()
    with pytest.raises(IntersectionFailure) as refused:
        functorial_expansion(spec, caps=Caps(size=4))
    with pytest.raises(IntersectionFailure, match="lacks intersections at size cap 4") as galois:
        galois_morleyization(spec, caps=Caps(size=4))
    assert galois.value.witness == refused.value.witness == {
        "kind": "structure",
        "label": "member",
        "value": "(structure (vocab) (universe 4))",
    }
