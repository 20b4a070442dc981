"""Closure-relation expansion, theory emission, round-trip verification.

The constructive pipeline: enrich a class's vocabulary with closure
relations, emit a theory of guarded-quantifier sentences whose models are
exactly the expanded members (at the working caps), and verify the
round trip.  Also: the universal-theory specialization for
substructure-closed relational classes, and the type-indexed expansion
that tests whether the class order collapses to plain substructure.
"""

from __future__ import annotations

import itertools

from .classspec import Caps, ModelClassSpec
from .closure import PointedModel, class_slice, enumerate_DK, verify_intersections
from .errors import (
    EmissionError,
    IntersectionFailure,
    SignatureError,
    UniversalityError,
)
from .records import record
from .reports import (
    FAIL,
    PASS,
    VerificationReport,
    formula_witness,
    structure_witness,
)
from .semantics import elem_F_star, enumerate_models, eval as eval_formula, models
from .structures import (
    DecoratedStructure,
    FiniteStructure,
    canonical_key,
    decorated,
    enumerate_hereditary,
    find_isomorphism,
    normalize,
    reduct,
)
from .syntax import (
    And,
    Atomic,
    Equal,
    Forall,
    Formula,
    Not,
    Or,
    QStruct,
    Theory,
    UNBOUNDED,
    Var,
    and_,
    forall_prefix,
    is_forall_qstruct,
    or_,
    qstruct,
    quantify,
    rebuild,
    scopes,
    subformula_closure,
)
from .translate import diagram_literals, univ_gen_rewrite
from .vocab import EMPTY_VOCABULARY, Vocabulary

CLOSURE_RELATION_STEM = "cl"


def closure_relation_name(n: int) -> str:
    return f"{CLOSURE_RELATION_STEM}{n}"


def expanded_vocabulary(base: Vocabulary, arity_cap: int) -> Vocabulary:
    """base plus one closure relation per tuple length 0..arity_cap."""
    extra = {}
    for n in range(arity_cap + 1):
        name = closure_relation_name(n)
        if name in base.relation_names() or name in base.function_names():
            raise SignatureError(f"vocabulary already uses the name {name!r}")
        extra[name] = n + 1
    return base.union(Vocabulary(extra))


@record(frozen=True)
class ExpansionMap:
    """Members enriched with closure relations; reduct is the identity."""

    spec: ModelClassSpec
    arity_cap: int
    vocab: Vocabulary
    caps: Caps = Caps()

    def expand(self, n: FiniteStructure) -> FiniteStructure:
        """n with (a, b1..bk) in the k-th closure relation iff a lies in cl(b)."""
        return class_slice(self.spec, self.caps).expanded(self, n)

    def build(self, sl, n: FiniteStructure) -> FiniteStructure:
        rels = {name: n.rel(name) for name in n.vocab.relation_names()}
        funs = {name: n.fun(name) for name in n.vocab.function_names()}
        elems = sorted(n.universe)
        for k in range(self.arity_cap + 1):
            rels[closure_relation_name(k)] = {
                (a, *tup)
                for tup in itertools.product(elems, repeat=k)
                for a in sl.cl(n, frozenset(tup)).structure.universe
            }
        return FiniteStructure(self.vocab, n.universe, rels, funs)

    def restrict(self, n_plus: FiniteStructure) -> FiniteStructure:
        return reduct(n_plus, self.spec.vocabulary)


def functorial_expansion(
    spec: ModelClassSpec, arity_cap: int | None = None, caps: Caps = Caps()
) -> ExpansionMap:
    """Closure-relation expansion over a class verified to have intersections.

    Refuses classes without intersections at the working caps, and checks
    that the class order matches expanded-substructure on the finite slice.
    """
    if arity_cap is None:
        arity_cap = caps.size
    vocab_plus = expanded_vocabulary(spec.vocabulary, arity_cap)
    report = verify_intersections(spec, caps)
    if not report.ok:
        witness = report.checks[0].witnesses[0] if report.checks[0].witnesses else None
        raise IntersectionFailure(
            f"class {spec.name!r} lacks intersections at size cap {caps.size}",
            witness=witness,
        )
    emap = ExpansionMap(spec, arity_cap, vocab_plus, caps)
    sl = class_slice(spec, caps)
    for n in sl.members:
        n_plus = emap.expand(n)
        for m in sl.strong(n):
            # one direction only: a strong part's expansion must embed;
            # the converse is false already for linear orders.
            if not emap.expand(m).is_substructure_of(n_plus):
                raise IntersectionFailure(
                    "expansion does not preserve the class order "
                    f"on a size-{m.size} part of a size-{n.size} member",
                    witness=(m, n),
                )
    return emap


# ---------------------------------------------------------------------------
# theory emission


@record(frozen=True)
class CatalogEntry:
    """One disjunct: a decorated expanded target plus the tuple that built it."""

    target: DecoratedStructure
    witness: tuple[int, ...]


@record(frozen=True)
class PairCatalog:
    """Targets for each tuple-length pair (m, k), m the frozen prefix length."""

    pairs: tuple[tuple[tuple[int, int], tuple[CatalogEntry, ...]], ...]

    def get(self, m: int, k: int) -> tuple[CatalogEntry, ...]:
        for key, entries in self.pairs:
            if key == (m, k):
                return entries
        return ()

    def counts(self) -> dict[str, int]:
        return {f"{m},{k}": len(entries) for (m, k), entries in self.pairs}


def _catalog_for_pair(
    emap: ExpansionMap, m: int, k: int, dk: list[PointedModel]
) -> tuple[CatalogEntry, ...]:
    sl = class_slice(emap.spec, emap.caps)
    entries: dict = {}
    for rep in dk:
        if len(rep.anchor) != m + k:
            continue
        m2 = rep.model
        m1 = sl.cl(m2, frozenset(rep.anchor[:m])).structure
        m2_plus = emap.expand(m2)
        dec = decorated(m2_plus, (frozenset(m1.universe),))
        canon = normalize(dec)
        if canon.key in entries:
            continue
        iso = find_isomorphism(dec, canon)
        entries[canon.key] = CatalogEntry(canon, tuple(iso[e] for e in rep.anchor))
    return tuple(entries[key] for key in sorted(entries))


def _reflexivity_sentence(n: int, k: int) -> Formula:
    zvars = [f"z{i}" for i in range(n)]
    atom = Atomic(
        closure_relation_name(n), (Var(zvars[k]), *[Var(z) for z in zvars])
    )
    return univ_gen_rewrite(quantify(Forall, zvars, atom))


def _pair_sentence(m: int, k: int, entries: tuple[CatalogEntry, ...]) -> Formula:
    zvars = [f"z{i}" for i in range(m)]
    wvars = [f"w{i}" for i in range(k)]
    phi = Atomic(
        closure_relation_name(m + k),
        (Var("x"), *[Var(v) for v in zvars + wvars]),
    )
    psi = Atomic(
        closure_relation_name(m), (Var("y"), *[Var(v) for v in zvars])
    )
    disjuncts = [
        qstruct(entry.target, "x", ("y",), phi, (psi,)) for entry in entries
    ]
    return quantify(Forall, zvars + wvars, or_(*disjuncts))


def _empty_universe_sentence() -> Formula:
    empty = FiniteStructure(EMPTY_VOCABULARY, ())
    return qstruct(decorated(empty), "x", (), Equal(Var("x"), Var("x")), ())


def _contradictory_sentences() -> tuple[Formula, Formula]:
    point = FiniteStructure(EMPTY_VOCABULARY, range(1))
    return (
        _empty_universe_sentence(),
        qstruct(decorated(point), "x", (), Not(Equal(Var("x"), Var("x"))), ()),
    )


def emit_aq_theory(spec: ModelClassSpec, caps: Caps = Caps()) -> tuple[Theory, PairCatalog]:
    """Emit the guarded-quantifier presentation of the expanded class.

    Two sentence families: tuple coordinates lie in their own closure, and
    every pair of closure sets matches some cataloged configuration.  An
    empty class gets a pair of jointly unsatisfiable sentences instead.  A
    class whose only member is the empty structure has no tuple of length
    one or more to catalog; one sentence saying that the universe is empty
    stands in for those pairs.  Tuples, and pairs of them, run to length
    caps.size.
    """
    members = class_slice(spec, caps).members
    if not members:
        s1, s2 = _contradictory_sentences()
        vocab = expanded_vocabulary(spec.vocabulary, caps.size)
        theory = Theory(f"{spec.name}-presentation", vocab, (s1, s2))
        return theory, PairCatalog(())
    emap = functorial_expansion(spec, caps.size, caps)
    dk = enumerate_DK(spec, max_tuple_len=caps.size, caps=caps)
    sentences: list[Formula] = []
    for n in range(1, caps.size + 1):
        for k in range(n):
            sentences.append(_reflexivity_sentence(n, k))
    only_empty = all(not n.universe for n in members)
    pairs = []
    for total in range(1 if only_empty else caps.size + 1):
        for m in range(total + 1):
            k = total - m
            entries = _catalog_for_pair(emap, m, k, dk)
            if not entries:
                raise EmissionError(f"no catalog entries for length pair ({m}, {k})")
            pairs.append(((m, k), entries))
            sentences.append(_pair_sentence(m, k, entries))
    if only_empty:
        sentences.append(_empty_universe_sentence())
    theory = Theory(f"{spec.name}-presentation", emap.vocab, tuple(sentences))
    for s in theory.sentences:
        shape = is_forall_qstruct(s)
        if not shape:
            raise EmissionError(f"emitted sentence out of shape: {shape.reason}")
    return theory, PairCatalog(tuple(pairs))


# ---------------------------------------------------------------------------
# round-trip verification


def verify_presentation(
    spec: ModelClassSpec,
    emitted: Theory,
    caps: Caps = Caps(),
    catalog: PairCatalog | None = None,
) -> VerificationReport:
    """Four checks that the emitted theory presents the expanded class.

    (1) every expanded member satisfies the theory; (2) the class order
    maps into starred elementarity between expansions; (3) membership the
    other way, established without enumerating the huge expanded-vocabulary
    structure space: the coordinate-closure sentences pin every element of
    a model into its full-tuple closure set, the full-length pair sentences
    force the model to be isomorphic to a cataloged target, and every
    cataloged target is independently re-verified to be a genuine expanded
    member; (4) on induced expanded substructures that satisfy the theory,
    starred elementarity coincides with the class order of the reducts.
    """
    report = VerificationReport(
        command=f"verify_presentation {spec.name}",
        caps={"size": caps.size, "arity_cap": caps.size, "pair_cap": caps.size},
    )
    sl = class_slice(spec, caps)
    members = sl.members
    if not members:
        n_models = sum(
            1
            for _ in enumerate_models(
                emitted, max_size=min(caps.size, 3), up_to_iso=True
            )
        )
        status = PASS if n_models == 0 else FAIL
        report.add(
            "models-satisfy-theory",
            PASS,
            {"members": 0},
            note="empty class: nothing to check",
        )
        report.add("order-preserved", PASS, {"pairs": 0}, note="empty class")
        report.add(
            "membership",
            status,
            {"models-found": n_models},
            [{"kind": "count", "label": "models", "value": n_models}] if n_models else [],
            note="the two contradictory sentences must have no models",
        )
        report.add("order-reflected", PASS, {"pairs": 0}, note="empty class")
        return report

    emap = functorial_expansion(spec, caps.size, caps)
    if catalog is None:
        _, catalog = emit_aq_theory(spec, caps)

    bad1 = []
    for n in members:
        n_plus = emap.expand(n)
        for s in emitted.sentences:
            if not eval_formula(n_plus, s, {}, UNBOUNDED):
                bad1.append((n, s))
                break
    report.add(
        "models-satisfy-theory",
        FAIL if bad1 else PASS,
        {"members": len(members), "sentences": len(emitted.sentences)},
        [
            w
            for n, s in bad1[:2]
            for w in (structure_witness("member", n), formula_witness("sentence", s))
        ],
    )

    fragment = subformula_closure(emitted)
    bad2 = []
    pairs2 = 0
    for n in members:
        n_plus = emap.expand(n)
        for m in sl.strong(n):
            pairs2 += 1
            m_plus = emap.expand(m)
            if not elem_F_star(m_plus, n_plus, fragment, UNBOUNDED):
                bad2.append((m, n))
    report.add(
        "order-preserved",
        FAIL if bad2 else PASS,
        {"pairs": pairs2},
        [
            w
            for m, n in bad2[:2]
            for w in (structure_witness("inner", m), structure_witness("outer", n))
        ],
    )

    bad3: list[dict] = []
    emitted_set = set(emitted.sentences)
    empty_universe = _empty_universe_sentence() in emitted_set
    for n in range(1, caps.size + 1):
        for k in range(n):
            if _reflexivity_sentence(n, k) not in emitted_set:
                bad3.append(
                    {
                        "kind": "missing-sentence",
                        "label": f"coordinate-closure ({n}, {k})",
                        "value": f"length {n}, coordinate {k}",
                    }
                )
    for s in range(caps.size + 1):
        entries = catalog.get(s, 0)
        if not entries and s and empty_universe:
            continue  # every model is empty, so no tuple of length s exists
        if not entries:
            bad3.append(
                {
                    "kind": "missing-catalog",
                    "label": f"pair ({s}, 0)",
                    "value": "no entries",
                }
            )
            continue
        if _pair_sentence(s, 0, entries) not in emitted_set:
            bad3.append(
                {
                    "kind": "missing-sentence",
                    "label": f"pair ({s}, 0)",
                    "value": "sentence absent or altered",
                }
            )
    checked_entries = 0
    for (m, k), entries in catalog.pairs:
        for entry in entries:
            checked_entries += 1
            base_plus = entry.target.base
            r = emap.restrict(base_plus)
            genuine = sl.contains(r) and emap.expand(r) == base_plus
            prefix_cl = sl.cl(r, frozenset(entry.witness[:m])).structure
            full_cl = sl.cl(r, frozenset(entry.witness)).structure
            if not genuine:
                bad3.append(
                    structure_witness("catalog-target-not-expanded-member", base_plus)
                )
            if frozenset(prefix_cl.universe) != entry.target.subsets[0]:
                bad3.append(
                    structure_witness("catalog-subset-mismatch", base_plus)
                )
            if frozenset(full_cl.universe) != frozenset(r.universe):
                bad3.append(
                    structure_witness("catalog-witness-not-generating", base_plus)
                )
    report.add(
        "membership",
        FAIL if bad3 else PASS,
        {"catalog-entries": checked_entries},
        bad3[:6],
        note=(
            "decomposition route: coordinate-closure + full-length pair sentences "
            "force any model to be isomorphic to a cataloged target; each target "
            "re-verified as a genuine expanded member"
        ),
    )

    bad4 = []
    pairs4 = 0
    for n in members:
        n_plus = emap.expand(n)
        strong = set(sl.strong(n))
        for part in sl.parts(n):
            a = sl.expanded_part(emap, n, part)
            if not models(a, emitted, UNBOUNDED):
                continue
            pairs4 += 1
            lhs = bool(elem_F_star(a, n_plus, fragment, UNBOUNDED))
            rhs = part in strong
            if lhs != rhs:
                bad4.append((a, n, lhs, rhs))
    report.add(
        "order-reflected",
        FAIL if bad4 else PASS,
        {"model-substructure-pairs": pairs4},
        [
            w
            for a, n, lhs, rhs in bad4[:2]
            for w in (
                structure_witness("substructure", a),
                structure_witness("outer-member", n),
                {
                    "kind": "verdict",
                    "label": "elementarity-vs-class-order",
                    "value": f"elementarity {lhs}, class order {rhs}",
                },
            )
        ],
    )
    return report


# ---------------------------------------------------------------------------
# universal classes


def tarski_universal_theory(
    spec: ModelClassSpec, caps: Caps = Caps()
) -> Theory:
    """Quantifier-free-matrix universal axioms for a substructure-closed class.

    One sentence per minimal excluded isomorphism type: no tuple may realize
    that type's full diagram.  Function symbols are refused; with them,
    diagrams of generated substructures would need term-depth bookkeeping
    this finite slice does not model.
    """
    vocab = spec.vocabulary
    if vocab.functions:
        raise SignatureError("universal-theory extraction requires a relational vocabulary")
    sl = class_slice(spec, caps)
    for n in sl.members:
        for m in sl.parts(n):
            if not sl.contains(m):
                raise UniversalityError(
                    "class is not closed under induced substructures",
                    witness=(n, sorted(m.universe)),
                )
    # The types whose one-point deletions are all members are the members and
    # the minimal excluded types.  The members are closed under induced
    # substructures, so this predicate is hereditary and the growth finds
    # every such type, sorted by size and then by key.
    member_keys = {canonical_key(m) for m in sl.members}

    def below_members(s: FiniteStructure) -> bool:
        return all(canonical_key(s.induced(s.universe - {p})) in member_keys for p in s.universe)

    minimal = [
        s for s in enumerate_hereditary(vocab, caps.size, below_members) if not spec.contains(s)
    ]
    sentences = [_forbidden_diagram(s) for s in minimal]
    theory = Theory(f"{spec.name}-universal", vocab, tuple(sentences))
    produced = {
        normalize(m).key
        for m in enumerate_models(theory, max_size=caps.size, up_to_iso=True)
    }
    wanted = {normalize(m).key for m in sl.members}
    if produced != wanted:
        raise EmissionError(
            "universal theory does not reproduce the class at the working cap"
        )
    return theory


def _forbidden_diagram(s: FiniteStructure) -> Formula:
    elems = sorted(s.universe)
    if not elems:
        # Excluding the empty structure is out of reach for universal
        # sentences; emit the strongest approximation and let the model-set
        # sweep below reject the theory.
        return Forall("z0", Not(Equal(Var("z0"), Var("z0"))))
    zs = [f"z{i}" for i in range(len(elems))]
    return quantify(Forall, zs, Not(_anchor_diagram(elems, [Var(z) for z in zs], s)))


_ALWAYS_FALSE = object()


def tarski_specialize(
    emitted: Theory, catalog: PairCatalog, base_vocab: Vocabulary
) -> Theory:
    """Rewrite an emitted presentation into plain universal sentences.

    Sound for substructure-closed relational classes, where the closure of
    a tuple is just its range: closure atoms become equality disjunctions,
    the one-element guard wrappers unwrap, and each cataloged disjunct
    becomes the full quantifier-free diagram of its witness tuple.
    Sentences that specialize to tautologies are dropped.
    """
    if base_vocab.functions:
        raise SignatureError("specialization requires a relational vocabulary")
    witnesses: dict = {}
    for pair, entries in catalog.pairs:
        for entry in entries:
            witnesses[(pair, entry.target.key)] = entry.witness
    sentences = []
    for s in emitted.sentences:
        prefix, body = forall_prefix(s)
        disjuncts = body.items if isinstance(body, Or) else (body,)
        new_disjuncts = []
        trivially_true = False
        for d in disjuncts:
            out_d = _specialize_disjunct(d, base_vocab, witnesses)
            if out_d is None:
                trivially_true = True
                break
            if out_d is _ALWAYS_FALSE:
                continue
            new_disjuncts.append(out_d)
        if trivially_true:
            continue
        if not new_disjuncts:
            raise EmissionError("a sentence specialized to an empty disjunction")
        sentences.append(quantify(Forall, prefix, or_(*new_disjuncts)))
    return Theory(f"{emitted.name}-specialized", base_vocab, tuple(sentences))


def _specialize_disjunct(d: Formula, base_vocab: Vocabulary, witnesses: dict):
    """None means the disjunct is a tautology; _ALWAYS_FALSE means drop it."""
    if not isinstance(d, QStruct):
        return _replace_closure_atoms(d)
    tvocab = d.target.base.vocab
    if not tvocab.relations and not tvocab.functions:
        matrix = _replace_closure_atoms(d.phi)
        if not d.target.base.universe:
            # the empty target: no element satisfies the matrix
            return Forall(d.var, Not(matrix))
        if matrix == Not(Equal(Var(d.var), Var(d.var))):
            # no element satisfies the matrix, so no one-point set is its set
            return _ALWAYS_FALSE
        if (
            isinstance(matrix, And)
            and len(matrix.items) == 2
            and isinstance(matrix.items[0], Equal)
        ):
            return matrix.items[1]
        return matrix
    param_terms = _closure_atom_params(d.phi)
    if not param_terms:
        return None if not d.target.base.universe else _ALWAYS_FALSE
    if not d.psis or not isinstance(d.psis[0], Atomic):
        raise EmissionError("expected a closure atom as the side matrix")
    m = len(d.psis[0].terms) - 1
    k = len(param_terms) - m
    if ((m, k), d.target.key) not in witnesses:
        raise EmissionError("quantifier target has no cataloged witness tuple")
    base = reduct(d.target.base, base_vocab)
    universe = frozenset(base.universe)
    prefix_image = d.target.subsets[0]
    # The quantifier only pins the closure's isomorphism type, so every
    # tuple arrangement onto the target is admissible, not just the stored
    # witness; automorphic anchors collapse to the same literal pattern.
    shapes: dict[Formula, None] = {}
    for tup in itertools.product(sorted(universe), repeat=m + k):
        if frozenset(tup) != universe or frozenset(tup[:m]) != prefix_image:
            continue
        shapes.setdefault(_anchor_diagram(tup, param_terms, base), None)
    if not shapes:
        return _ALWAYS_FALSE
    return or_(*shapes)


def _anchor_diagram(tup, param_terms, base: FiniteStructure) -> Formula:
    lits = diagram_literals(tup, param_terms, base)
    return and_(*lits) if lits else Equal(param_terms[0], param_terms[0])


def _closure_atom_params(phi: Formula) -> tuple:
    if not isinstance(phi, Atomic) or not phi.rel.startswith(CLOSURE_RELATION_STEM):
        raise EmissionError("expected a closure atom as the main matrix")
    return phi.terms[1:]


def _replace_closure_atoms(phi: Formula) -> Formula:
    if isinstance(phi, Atomic) and phi.rel.startswith(CLOSURE_RELATION_STEM):
        suffix = phi.rel[len(CLOSURE_RELATION_STEM) :]
        if suffix.isdigit():
            head, rest = phi.terms[0], phi.terms[1:]
            if not rest:
                return Not(Equal(head, head))
            return or_(*[Equal(head, t) for t in rest])
    slots = scopes(phi)
    if any(var is not None for var, _ in slots):
        raise EmissionError("unexpected shape inside a specialized sentence")
    return rebuild(phi, [(None, _replace_closure_atoms(c)) for _, c in slots])


# ---------------------------------------------------------------------------
# type-indexed expansion


@record(frozen=True)
class MorleyizationMap:
    """One relation per anchored-closure type; arity is the anchor length."""

    spec: ModelClassSpec
    vocab: Vocabulary
    reps: tuple[tuple[str, PointedModel], ...]
    caps: Caps = Caps()

    def expand(self, n: FiniteStructure) -> FiniteStructure:
        return class_slice(self.spec, self.caps).expanded(self, n)

    def build(self, sl, n: FiniteStructure) -> FiniteStructure:
        rels = {name: n.rel(name) for name in n.vocab.relation_names()}
        funs = {name: n.fun(name) for name in n.vocab.function_names()}
        elems = sorted(n.universe)
        types: dict[int, list] = {}
        for name, rep in self.reps:
            k = len(rep.anchor)
            if k not in types:
                types[k] = [
                    (tup, sl.anchored_type(n, tup)) for tup in itertools.product(elems, repeat=k)
                ]
            wanted = sl.anchored_type(rep.model, rep.anchor)
            rels[name] = {tup for tup, t in types[k] if t == wanted}
        return FiniteStructure(self.vocab, n.universe, rels, funs)


def galois_morleyization(
    spec: ModelClassSpec, arity_cap: int = 2, caps: Caps = Caps()
) -> tuple[MorleyizationMap, VerificationReport]:
    """Expand members with one relation per anchored-closure type.

    Anchor lengths run from 1 to the arity cap; the empty-anchor type has no
    relational arity and is omitted.  The report states whether, at the
    caps, plain substructure between expanded members coincides with the
    class order — it is measured, never assumed.
    """
    inter = verify_intersections(spec, caps)
    if not inter.ok:
        raise IntersectionFailure(
            f"class {spec.name!r} lacks intersections at size cap {caps.size}"
        )
    dk = enumerate_DK(spec, max_tuple_len=arity_cap, caps=caps)
    reps = []
    extra: dict[str, int] = {}
    counter: dict[int, int] = {}
    for rep in dk:
        length = len(rep.anchor)
        if length == 0:
            continue
        idx = counter.get(length, 0)
        counter[length] = idx + 1
        name = f"gt{length}_{idx}"
        if name in spec.vocabulary.relation_names():
            raise SignatureError(f"vocabulary already uses the name {name!r}")
        reps.append((name, rep))
        extra[name] = length
    vocab = spec.vocabulary.union(Vocabulary(extra))
    mmap = MorleyizationMap(spec, vocab, tuple(reps), caps)

    report = VerificationReport(
        command=f"galois_morleyization {spec.name}",
        caps={"size": caps.size, "arity_cap": arity_cap},
    )
    sl = class_slice(spec, caps)
    bad = []
    pairs = 0
    for n in sl.members:
        n_plus = mmap.expand(n)
        strong = set(sl.strong(n))
        for m in sl.member_parts(n):
            pairs += 1
            m_plus = mmap.expand(m)
            embedded = m_plus.is_substructure_of(n_plus)
            in_order = m in strong
            if embedded != in_order:
                bad.append((m, n, embedded, in_order))
    report.add(
        "model-completeness",
        FAIL if bad else PASS,
        {"pairs": pairs, "type-relations": len(reps)},
        [
            w
            for m, n, embedded, in_order in bad[:2]
            for w in (
                structure_witness("inner", m),
                structure_witness("outer", n),
                {
                    "kind": "verdict",
                    "label": "substructure-vs-class-order",
                    "value": f"expanded substructure {embedded}, class order {in_order}",
                },
            )
        ],
        note="whether expanded substructure equals the class order at the caps",
    )
    return mmap, report
