"""Formula syntax: terms, formulas, theories, fragments, size thresholds.

Formulas are immutable and hashable; equality is structural.  The structure-
matching quantifier node carries its target as a decorated structure over the
target's own (sub-)vocabulary; targets are kept in canonical form so that
structurally equal formulas are exactly the ones built from isomorphic targets
laid out identically.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ArityError, KappaError, ShapeError, SignatureError
from .records import field, record
from .structures import DecoratedStructure, normalize
from .vocab import Vocabulary

# ---------------------------------------------------------------------------
# terms


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class App:
    fun: str
    args: tuple["Term", ...] = ()


Term = Var | App


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= term_vars(a)
    return out


def _term_subst(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(t.fun, tuple(_term_subst(a, mapping) for a in t.args))


# ---------------------------------------------------------------------------
# formulas


@record(frozen=True)
class Atomic:
    rel: str
    terms: tuple[Term, ...]


@record(frozen=True)
class Equal:
    left: Term
    right: Term


@record(frozen=True)
class Not:
    body: "Formula"


@record(frozen=True)
class And:
    items: tuple["Formula", ...]

    def __post_init__(self):
        if not self.items:
            raise ShapeError("conjunction needs at least one conjunct")


@record(frozen=True)
class Or:
    items: tuple["Formula", ...]

    def __post_init__(self):
        if not self.items:
            raise ShapeError("disjunction needs at least one disjunct")


@record(frozen=True)
class Exists:
    var: str
    body: "Formula"


@record(frozen=True)
class Forall:
    var: str
    body: "Formula"


@record(frozen=True)
class QStruct:
    """Structure-matching quantifier.

    Holds in N under an assignment of its free variables when (a) each
    side-formula's solution set is contained in the main solution set, and
    (b) the induced target-vocabulary substructure on the main solution set,
    decorated by the side solution sets, is isomorphic to the target.
    """

    target: DecoratedStructure
    var: str
    yvars: tuple[str, ...]
    phi: "Formula"
    psis: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.yvars) != len(self.psis):
            raise ArityError("one bound variable is needed per side formula")
        if len(self.target.subsets) != len(self.psis):
            raise ArityError("one target subset is needed per side formula")


Formula = Atomic | Equal | Not | And | Or | Exists | Forall | QStruct


def qstruct(
    target,
    var: str,
    yvars: tuple[str, ...],
    phi: Formula,
    psis: tuple[Formula, ...],
) -> QStruct:
    """Build a quantifier node with its target put in canonical form.

    Accepts a bare structure (decorated with no subsets) or a decorated one.
    """
    if not isinstance(target, DecoratedStructure):
        target = DecoratedStructure(target, ())
    return QStruct(normalize(target), var, tuple(yvars), phi, tuple(psis))


def and_(*items: Formula) -> Formula:
    return items[0] if len(items) == 1 else And(tuple(items))


def or_(*items: Formula) -> Formula:
    return items[0] if len(items) == 1 else Or(tuple(items))


def implies(a: Formula, b: Formula) -> Formula:
    return Or((Not(a), b))


def scopes(phi: Formula) -> tuple[tuple[str | None, Formula], ...]:
    """The node's children, each with the variable the node binds in it.

    Slots that bind nothing carry None.  A structure quantifier binds its
    main variable in the main formula and each side variable in its own side
    formula, in that order.
    """
    if isinstance(phi, (Atomic, Equal)):
        return ()
    if isinstance(phi, Not):
        return ((None, phi.body),)
    if isinstance(phi, (And, Or)):
        return tuple((None, f) for f in phi.items)
    if isinstance(phi, (Exists, Forall)):
        return ((phi.var, phi.body),)
    if isinstance(phi, QStruct):
        return ((phi.var, phi.phi), *zip(phi.yvars, phi.psis))
    raise TypeError(f"not a formula: {phi!r}")


def rebuild(phi: Formula, slots) -> Formula:
    """Inverse of scopes: a node of phi's kind (and target) over new slots."""
    if isinstance(phi, (Atomic, Equal)):
        return phi
    if isinstance(phi, Not):
        return Not(slots[0][1])
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(c for _, c in slots))
    if isinstance(phi, (Exists, Forall)):
        return type(phi)(*slots[0])
    (var, body), *sides = slots
    return QStruct(
        phi.target, var, tuple(y for y, _ in sides), body, tuple(p for _, p in sides)
    )


def children(phi: Formula) -> tuple[Formula, ...]:
    return tuple(c for _, c in scopes(phi))


def forall_prefix(phi: Formula) -> tuple[tuple[str, ...], Formula]:
    """The variables of phi's universal prefix, outermost first, and its matrix."""
    prefix = []
    while isinstance(phi, Forall):
        prefix.append(phi.var)
        phi = phi.body
    return tuple(prefix), phi


def quantify(binder, variables, body: Formula) -> Formula:
    """Wrap body in one binder (Exists or Forall) per variable, first outermost."""
    for v in reversed(variables):
        body = binder(v, body)
    return body


def free_vars(phi: Formula) -> frozenset[str]:
    """phi's free variables, kept on phi."""
    try:
        return phi._free_vars
    except AttributeError:
        pass
    if isinstance(phi, Atomic):
        found = frozenset().union(*map(term_vars, phi.terms))
    elif isinstance(phi, Equal):
        found = term_vars(phi.left) | term_vars(phi.right)
    else:
        found = frozenset().union(*(free_vars(c) - {v} for v, c in scopes(phi)))
    object.__setattr__(phi, "_free_vars", found)
    return found


def fresh_var(avoid, stem: str = "v") -> str:
    avoid = set(avoid)
    i = 0
    while f"{stem}{i}" in avoid:
        i += 1
    return f"{stem}{i}"


def substitute_map(phi: Formula, mapping: dict[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables.

    Quantifier targets are never touched; bound variables are renamed to a
    fresh name when a substituted term would be captured.
    """
    mapping = {k: v for k, v in mapping.items() if v != Var(k)}
    if not mapping:
        return phi
    if isinstance(phi, Atomic):
        return Atomic(phi.rel, tuple(_term_subst(t, mapping) for t in phi.terms))
    if isinstance(phi, Equal):
        return Equal(_term_subst(phi.left, mapping), _term_subst(phi.right, mapping))
    return rebuild(phi, [_subst_binder(v, c, mapping) for v, c in scopes(phi)])


def _subst_binder(var: str | None, body: Formula, mapping: dict[str, Term]):
    """Substitute into one slot; rename its bound variable when it would capture."""
    fv = free_vars(body)
    inner = {k: t for k, t in mapping.items() if k != var and k in fv}
    if not inner:
        return var, body
    captured = frozenset().union(*map(term_vars, inner.values()))
    if var in captured:
        new = fresh_var(captured | fv | set(inner), "v")
        body = substitute_map(body, {var: Var(new)})
        var = new
    return var, substitute_map(body, inner)


def substitute(phi: Formula, var: str, term: Term) -> Formula:
    """Replace the free variable by the term, renaming binders to avoid capture."""
    return substitute_map(phi, {var: term})


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, (Exists, Forall, QStruct)):
        return False
    return all(is_quantifier_free(c) for c in children(phi))


def has_qstruct(phi: Formula) -> bool:
    if isinstance(phi, QStruct):
        return True
    return any(has_qstruct(c) for c in children(phi))


def qstruct_nodes(phi: Formula):
    if isinstance(phi, QStruct):
        yield phi
    for c in children(phi):
        yield from qstruct_nodes(c)


# ---------------------------------------------------------------------------
# deterministic ordering of formulas (no printer dependency)

_TAGS = {Atomic: 0, Equal: 1, Not: 2, And: 3, Or: 4, Exists: 5, Forall: 6, QStruct: 7}


def _term_key(t: Term):
    if isinstance(t, Var):
        return (0, t.name, ())
    return (1, t.fun, tuple(_term_key(a) for a in t.args))


def sort_key(phi: Formula):
    tag = _TAGS[type(phi)]
    if isinstance(phi, Atomic):
        return (tag, phi.rel, tuple(_term_key(t) for t in phi.terms))
    if isinstance(phi, Equal):
        return (tag, "", (_term_key(phi.left), _term_key(phi.right)))
    if isinstance(phi, QStruct):
        return (
            tag,
            phi.var,
            (
                phi.target.key,
                tuple(phi.yvars),
                sort_key(phi.phi),
                tuple(sort_key(p) for p in phi.psis),
            ),
        )
    slots = scopes(phi)
    return (tag, slots[0][0] or "", tuple(sort_key(c) for _, c in slots))


# ---------------------------------------------------------------------------
# kappa thresholds


@record(frozen=True)
class KappaThreshold:
    """Size gate for quantifier targets and for the solution-set side condition.

    Finite(k) admits targets of size strictly below k; Unbounded admits all
    finite targets, and makes every finite solution set count as small.
    """

    bound: int | None = None

    @staticmethod
    def unbounded() -> "KappaThreshold":
        return KappaThreshold(None)

    @staticmethod
    def finite(k: int) -> "KappaThreshold":
        if k < 1:
            raise KappaError("a finite threshold must be at least 1")
        return KappaThreshold(k)

    @property
    def is_unbounded(self) -> bool:
        return self.bound is None

    def admits_target(self, size: int) -> bool:
        return self.bound is None or size < self.bound

    def counts_as_small(self, count: int) -> bool:
        return self.bound is None or count < self.bound

    def __repr__(self):
        return "Unbounded" if self.bound is None else f"Finite({self.bound})"


UNBOUNDED = KappaThreshold.unbounded()


def check_kappa(phi: Formula, kappa: KappaThreshold) -> None:
    """Raise KappaError when any quantifier target in phi is too large."""
    if kappa.is_unbounded:
        return
    for node in qstruct_nodes(phi):
        if not kappa.admits_target(node.target.size):
            raise KappaError(
                f"quantifier target of size {node.target.size} violates threshold {kappa!r}"
            )


# ---------------------------------------------------------------------------
# theories and fragments


@record(frozen=True)
class Theory:
    name: str
    vocabulary: Vocabulary
    sentences: tuple[Formula, ...]

    def __post_init__(self):
        for s in self.sentences:
            fv = free_vars(s)
            if fv:
                raise ShapeError(f"theory sentence has free variables {sorted(fv)}")


@record(frozen=True)
class Fragment:
    """A finite, subformula-closed set of formulas.

    Atomic formulas are members whenever they occur as subformulas; beyond
    that, atomic agreement between a substructure and its parent is automatic,
    so no implicit atomic family is materialized.
    """

    formulas: frozenset[Formula] = field(default_factory=frozenset)

    def __contains__(self, phi: Formula) -> bool:
        return phi in self.formulas

    @cached_property
    def _ordered(self) -> tuple[Formula, ...]:
        return tuple(sorted(self.formulas, key=sort_key))

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self):
        return len(self.formulas)

    def qstruct_members(self):
        return [f for f in self if isinstance(f, QStruct)]


def subformula_closure(source) -> Fragment:
    """Smallest subformula-closed fragment containing the given formulas.

    Accepts a Theory, an iterable of formulas, or a single formula.
    """
    if isinstance(source, Theory):
        roots = list(source.sentences)
    elif isinstance(source, (Atomic, Equal, Not, And, Or, Exists, Forall, QStruct)):
        roots = [source]
    else:
        roots = list(source)
    out: set[Formula] = set()
    stack = list(roots)
    while stack:
        phi = stack.pop()
        if phi in out:
            continue
        out.add(phi)
        stack.extend(children(phi))
    return Fragment(frozenset(out))


# ---------------------------------------------------------------------------
# sentence shapes


@record(frozen=True)
class ShapeReport:
    ok: bool
    reason: str | None = None
    offender: Formula | None = None

    def __bool__(self):
        return self.ok


def is_forall_qstruct(sentence: Formula) -> ShapeReport:
    """Check the universally-guarded quantifier-disjunction sentence shape.

    Accepted: a (possibly empty) universal prefix over a non-empty disjunction
    of quantifier nodes (a single node counts as a one-disjunct disjunction)
    whose main and side formulas are quantifier-free.
    """
    _, body = forall_prefix(sentence)
    disjuncts = body.items if isinstance(body, Or) else (body,)
    for d in disjuncts:
        if not isinstance(d, QStruct):
            return ShapeReport(False, "disjunct is not a structure quantifier", d)
        for inner in (d.phi, *d.psis):
            if not is_quantifier_free(inner):
                return ShapeReport(False, "quantifier inside a matrix formula", inner)
    return ShapeReport(True)


def audit_formula(phi: Formula, vocab: Vocabulary | None = None) -> None:
    """Well-formedness walk: canonical targets, arity checks against vocab."""
    if isinstance(phi, Atomic) and vocab is not None:
        arity = vocab.rel_arity(phi.rel)
        if arity != len(phi.terms):
            raise ArityError(f"relation {phi.rel!r} expects {arity} terms")
        for t in phi.terms:
            _audit_term(t, vocab)
    if isinstance(phi, Equal) and vocab is not None:
        _audit_term(phi.left, vocab)
        _audit_term(phi.right, vocab)
    if isinstance(phi, QStruct):
        if normalize(phi.target) != phi.target:
            raise ShapeError("quantifier target is not in canonical form")
        if vocab is not None and not phi.target.base.vocab.is_subvocabulary_of(vocab):
            raise SignatureError("quantifier target vocabulary is not a sub-vocabulary")
    for c in children(phi):
        audit_formula(c, vocab)


def _audit_term(t: Term, vocab: Vocabulary) -> None:
    if isinstance(t, App):
        arity = vocab.fun_arity(t.fun)
        if arity != len(t.args):
            raise ArityError(f"function {t.fun!r} expects {arity} arguments")
        for a in t.args:
            _audit_term(a, vocab)
