"""Formula-to-formula translations.

Each pass is truth-preserving on the structures it claims to cover, and the
test suite sweeps that equivalence exhaustively at small sizes: rewriting
universal sentences into the guarded-quantifier shape, widening a
quantifier's target vocabulary, compiling the structure quantifier away into
counting-plus-diagram form, and exact-diagram sentences for finite
structures.
"""

from __future__ import annotations

import itertools

from .errors import ShapeError, SignatureError
from .records import record
from .structures import (
    DecoratedStructure,
    FiniteStructure,
    decorated,
    enumerate_expansions,
    expand,
)
from .syntax import (
    And,
    App,
    Atomic,
    Equal,
    Exists,
    Forall,
    Formula,
    KappaThreshold,
    Not,
    QStruct,
    Term,
    UNBOUNDED,
    Var,
    and_,
    forall_prefix,
    fresh_var,
    free_vars,
    implies,
    is_quantifier_free,
    or_,
    qstruct,
    quantify,
    rebuild,
    scopes,
    substitute_map,
)
from .vocab import EMPTY_VOCABULARY, Vocabulary

_ONE_POINT = FiniteStructure(EMPTY_VOCABULARY, range(1))


def univ_gen_rewrite(sentence: Formula) -> Formula:
    """Rewrite a plain universal sentence into guarded-quantifier shape.

    The matrix is wrapped in a one-element-target quantifier pinned to the
    first universal variable; a sentence with no universal prefix gets a
    dummy universally quantified variable first, so the output always has
    the shape the guarded-quantifier test accepts.
    """
    prefix, body = forall_prefix(sentence)
    if not is_quantifier_free(body):
        raise ShapeError("matrix must be quantifier-free")
    if not prefix:
        prefix = (fresh_var(free_vars(body), "z"),)
    pin = prefix[0]
    x = fresh_var(set(prefix) | free_vars(body), "v")
    wrapped = qstruct(
        decorated(_ONE_POINT, ()),
        x,
        (),
        And((Equal(Var(x), Var(pin)), body)),
        (),
    )
    return quantify(Forall, prefix, wrapped)


def eliminate_subvocab(q: QStruct, tau: Vocabulary) -> Formula:
    """Widen the quantifier's target vocabulary to tau by expanding the target.

    One disjunct per isomorphism type of expansion; subsets carried along
    unchanged.  New function or constant symbols are refused: the widened
    quantifier would add closure constraints the original does not have.
    """
    tau0 = q.target.base.vocab
    if not tau0.is_subvocabulary_of(tau):
        raise SignatureError("target vocabulary is not contained in the requested one")
    new_functions = set(tau.function_names()) - set(tau0.function_names())
    if new_functions:
        raise SignatureError(
            f"widening over new function symbols {sorted(new_functions)} is not "
            "truth-preserving"
        )
    expansions = enumerate_expansions(q.target.base, tau)
    return or_(
        *[
            qstruct(decorated(m, q.target.subsets), q.var, q.yvars, q.phi, q.psis)
            for m in expansions
        ]
    )


# ---------------------------------------------------------------------------
# exact-diagram sentences


@record(frozen=True)
class ScottSentence:
    """Exact-diagram characterization of a finite decorated structure.

    The formula holds in a finite structure exactly when that structure,
    with the placeholder predicates read as subset membership, is isomorphic
    to the characterized one.  Placeholders are fresh unary relation names,
    one per subset.
    """

    formula: Formula
    placeholders: tuple[str, ...]


def diagram_literals(tup, terms, base: FiniteStructure) -> list[Formula]:
    """The equality and relation literals that tup satisfies in base.

    Position i of tup is named by terms[i]: one equality or inequality per
    pair of positions, then, relation by relation, one atom or negated atom
    per tuple of positions.
    """
    lits: list[Formula] = []
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            eq = Equal(terms[i], terms[j])
            lits.append(eq if tup[i] == tup[j] else Not(eq))
    for rel in sorted(base.vocab.relations):
        rows = base.rel(rel)
        for idx in itertools.product(range(len(tup)), repeat=base.vocab.rel_arity(rel)):
            atom = Atomic(rel, tuple(terms[i] for i in idx))
            lits.append(atom if tuple(tup[i] for i in idx) in rows else Not(atom))
    return lits


def scott_sentence(d: DecoratedStructure) -> ScottSentence:
    base = d.base
    taken = set(base.vocab.relation_names()) | set(base.vocab.function_names())
    placeholders = []
    i = 0
    while len(placeholders) < len(d.subsets):
        name = f"P{i}"
        i += 1
        if name not in taken:
            placeholders.append(name)
    elems = sorted(base.universe)
    if not elems:
        y = "v0"
        return ScottSentence(Forall(y, Not(Equal(Var(y), Var(y)))), tuple(placeholders))
    names = {e: f"v{idx}" for idx, e in enumerate(elems)}
    lits = diagram_literals(elems, [Var(names[e]) for e in elems], base)
    for fun in sorted(base.vocab.functions):
        arity = base.vocab.fun_arity(fun)
        for args in itertools.product(elems, repeat=arity):
            value = base.apply(fun, args)
            lits.append(
                Equal(App(fun, tuple(Var(names[e]) for e in args)), Var(names[value]))
            )
    for pname, subset in zip(placeholders, d.subsets):
        for e in elems:
            atom = Atomic(pname, (Var(names[e]),))
            lits.append(atom if e in subset else Not(atom))
    closing_var = f"v{len(elems)}"
    lits.append(
        Forall(
            closing_var,
            or_(*[Equal(Var(closing_var), Var(names[e])) for e in elems]),
        )
    )
    body = quantify(Exists, [names[e] for e in elems], And(tuple(lits)))
    return ScottSentence(body, tuple(placeholders))


def with_subset_predicates(
    d: DecoratedStructure, placeholders: tuple[str, ...]
) -> FiniteStructure:
    """Expand the base structure with one unary relation per subset."""
    if len(placeholders) != len(d.subsets):
        raise ShapeError("one placeholder name is needed per subset")
    vocab = d.base.vocab.union(Vocabulary({p: 1 for p in placeholders}))
    rels = {pname: {(e,) for e in subset} for pname, subset in zip(placeholders, d.subsets)}
    return expand(d.base, vocab, rels)


# ---------------------------------------------------------------------------
# compiling the structure quantifier away


def _relativize(phi: Formula, guard, placeholder_map) -> Formula:
    """Bounded quantifiers through `guard(term)`; placeholder atoms rewritten."""
    if isinstance(phi, Atomic) and phi.rel in placeholder_map:
        if len(phi.terms) != 1:
            raise ShapeError("placeholder atoms are unary")
        return placeholder_map[phi.rel](phi.terms[0])
    if isinstance(phi, QStruct):
        raise ShapeError("cannot relativize through a structure quantifier")
    out = rebuild(
        phi, [(v, _relativize(c, guard, placeholder_map)) for v, c in scopes(phi)]
    )
    if isinstance(out, Exists):
        return Exists(out.var, And((guard(Var(out.var)), out.body)))
    if isinstance(out, Forall):
        return Forall(out.var, implies(guard(Var(out.var)), out.body))
    return out


def _count_at_least(k: int, x: str, phi: Formula, avoid) -> Formula:
    """First-order 'at least k elements satisfy phi'."""
    if k < 1:
        raise ShapeError("counting thresholds start at 1")
    names = []
    pool = set(avoid) | {x}
    for _ in range(k):
        fresh = fresh_var(pool, "v")
        pool.add(fresh)
        names.append(fresh)
    lits: list[Formula] = []
    for i in range(k):
        for j in range(i + 1, k):
            lits.append(Not(Equal(Var(names[i]), Var(names[j]))))
    for name in names:
        lits.append(substitute_map(phi, {x: Var(name)}))
    return quantify(Exists, names, and_(*lits))


def qstruct_to_counting(q: QStruct, kappa: KappaThreshold = UNBOUNDED) -> Formula:
    """Compile a structure quantifier into containment + cap + diagram form.

    Output: for each side formula, a containment conjunct; under a finite
    threshold, a conjunct capping the main solution set strictly below the
    threshold; and the target's exact-diagram sentence relativized to the
    main solution set, with placeholder atoms replaced by side formulas.
    """
    avoid = set(free_vars(q)) | {q.var} | set(q.yvars)
    conjuncts: list[Formula] = []
    for y, psi in zip(q.yvars, q.psis):
        w = fresh_var(avoid, "v")
        avoid.add(w)
        conjuncts.append(
            Forall(
                w,
                implies(
                    substitute_map(psi, {y: Var(w)}),
                    substitute_map(q.phi, {q.var: Var(w)}),
                ),
            )
        )
    if not kappa.is_unbounded:
        conjuncts.append(
            Not(_count_at_least(kappa.bound, q.var, q.phi, avoid))
        )
    scott = scott_sentence(q.target)

    def guard(t: Term) -> Formula:
        return substitute_map(q.phi, {q.var: t})

    placeholder_map = {}
    for pname, (y, psi) in zip(scott.placeholders, zip(q.yvars, q.psis)):
        placeholder_map[pname] = (
            lambda t, y=y, psi=psi: substitute_map(psi, {y: t})
        )
    rho = _rename_bound_away(scott.formula, avoid)
    conjuncts.append(_relativize(rho, guard, placeholder_map))
    return and_(*conjuncts)


def _rename_bound_away(phi: Formula, avoid: set) -> Formula:
    """Rename bound variables so none collides with the given names."""
    slots = []
    for var, body in scopes(phi):
        if var in avoid:
            new = fresh_var(avoid | free_vars(body) | {var}, "u")
            body = substitute_map(body, {var: Var(new)})
            var = new
        inner = avoid if var is None else avoid | {var}
        slots.append((var, _rename_bound_away(body, inner)))
    return rebuild(phi, slots)
