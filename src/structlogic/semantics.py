"""Satisfaction, solution sets, fragment elementarity, bounded model search.

The structure-matching quantifier holds when (a) every side solution set is
contained in the main solution set and (b) the main solution set carries an
induced target-vocabulary substructure isomorphic to the target, with side
sets landing exactly on the target's designated subsets.  When the main
solution set is not closed under the target vocabulary's functions, no such
substructure exists and the quantifier is false rather than an error.

Each formula node is compiled once, on first use, into a closure
(structure, assignment) -> bool that is kept on the node; its children's
closures, variable orders and quantifier slots are fixed at that point.  The
evaluation memos sit at the binders: `_binder` keeps the truth of a compiled
Exists/Forall node per structure and parameter values, `_solution_sets` a
quantifier's solution sets, and `_matches` the target match over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .errors import AssignmentError, CapacityError, DomainError, SignatureError
from .formats import print_formula
from .structures import (
    DecoratedStructure,
    FiniteStructure,
    canonical_key,
    decorated,
    enumerate_hereditary,
    enumerate_structures,
    reduct,
)
from .syntax import (
    And,
    Atomic,
    Equal,
    Exists,
    Forall,
    Formula,
    Fragment,
    KappaThreshold,
    Not,
    Or,
    QStruct,
    Term,
    Theory,
    UNBOUNDED,
    Var,
    check_kappa,
    forall_prefix,
    free_vars,
    is_quantifier_free,
    scopes,
)

MAX_ELEM_FREE_VARS = 6

Assignment = dict[str, int]


def _compiled(phi: Formula):
    """phi's closure (structure, assignment) -> bool, compiled once and kept on phi."""
    try:
        return phi._compiled
    except AttributeError:
        pass
    test = _compile(phi)
    object.__setattr__(phi, "_compiled", test)
    return test


def _row(names: tuple[str, ...]):
    """A function from an assignment to the tuple of its values at names."""
    if len(names) == 1:
        (name,) = names
        return lambda env: (env[name],)
    return itemgetter(*names) if names else lambda env: ()


def _term(t: Term):
    """The term's value as a closure (structure, assignment) -> element."""
    if isinstance(t, Var):
        name = t.name
        return lambda n, env: env[name]
    fun = t.fun
    if all(isinstance(a, Var) for a in t.args):
        row = _row(tuple(a.name for a in t.args))
        return lambda n, env: n.apply(fun, row(env))
    args = tuple(map(_term, t.args))
    return lambda n, env: n.apply(fun, tuple([a(n, env) for a in args]))


def _compile(phi: Formula):
    if isinstance(phi, Atomic):
        rel = phi.rel
        if all(isinstance(t, Var) for t in phi.terms):
            row = _row(tuple(t.name for t in phi.terms))
            return lambda n, env: row(env) in n.rel(rel)
        terms = tuple(map(_term, phi.terms))
        return lambda n, env: tuple([t(n, env) for t in terms]) in n.rel(rel)
    if isinstance(phi, Equal):
        left, right = _term(phi.left), _term(phi.right)
        return lambda n, env: left(n, env) == right(n, env)
    if isinstance(phi, Not):
        body = _compiled(phi.body)
        return lambda n, env: not body(n, env)
    if isinstance(phi, (And, Or)):
        # the first item equal to stop decides; every closure returns a bool
        items, stop = tuple(map(_compiled, phi.items)), isinstance(phi, Or)

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
        return _compile_qstruct(phi, names, row)
    var, body, stop = phi.var, _compiled(phi.body), isinstance(phi, Exists)

    def sweep(n: FiniteStructure, values: tuple) -> bool:
        env = dict(zip(names, values))
        for e in n.elements:
            env[var] = e
            if body(n, env) is stop:
                return stop
        return not stop

    return lambda n, env: _binder(n, sweep, row(env))


def _compile_qstruct(phi: QStruct, names: tuple[str, ...], row):
    slots, target = scopes(phi), phi.target
    vocab = target.base.vocab
    checked = None  # the last structure vocabulary the target's was checked against

    def match(n: FiniteStructure, env: Assignment) -> bool:
        nonlocal checked
        if n.vocab is not checked:
            if not vocab.is_subvocabulary_of(n.vocab):
                raise SignatureError(
                    "quantifier target vocabulary is not a sub-vocabulary of the structure's"
                )
            checked = n.vocab
        sets = _solution_sets(n, slots, tuple(zip(names, row(env))))
        return _matches(n, target, sets[0], sets[1:])

    return match


@lru_cache(maxsize=1_000_000)
def _binder(n: FiniteStructure, sweep, values: tuple) -> bool:
    """Truth of a compiled Exists/Forall node under its free variables' values.

    sweep is the node's compiled loop, hashed by identity.
    """
    return sweep(n, values)


@lru_cache(maxsize=400_000)
def _solution_sets(n: FiniteStructure, slots: tuple, params: tuple) -> tuple:
    """The solution set of each (variable, body) slot under the parameters.

    Keyed by a quantifier's slots rather than its node, so the disjuncts of a
    type disjunction, which differ only in their targets, share one entry.
    """
    elems = n.elements
    sets = []
    for x, body in slots:
        test, env, found = _compiled(body), dict(params), []
        for e in elems:
            env[x] = e
            if test(n, env):
                found.append(e)
        sets.append(frozenset(found))
    return tuple(sets)


@lru_cache(maxsize=400_000)
def _matches(
    n: FiniteStructure, target: DecoratedStructure, main: frozenset, sides: tuple
) -> bool:
    """Whether main, decorated by sides, induces a copy of the target in n.

    Sizes and side containment are compared before anything is built, so a
    main set of the wrong size is rejected without being labelled.
    """
    if len(main) != target.size or not all(side <= main for side in sides):
        return False
    base = reduct(n, target.base.vocab)
    if not base.is_closed_subset(main):
        return False
    return canonical_key(decorated(base.induced(main), sides)) == canonical_key(target)


def eval(  # noqa: A001 - interface name fixed by contract
    n: FiniteStructure,
    phi: Formula,
    a: Assignment | None = None,
    kappa: KappaThreshold = UNBOUNDED,
) -> bool:
    """Truth of phi in n under the assignment, gated by the size threshold."""
    env = dict(a or {})
    missing = free_vars(phi) - env.keys()
    if missing:
        raise AssignmentError(f"unassigned free variables: {sorted(missing)}")
    for var in free_vars(phi):
        if env[var] not in n.universe:
            raise DomainError(f"assignment sends {var!r} outside the universe")
    check_kappa(phi, kappa)
    return _compiled(phi)(n, env)


def solution_set(
    n: FiniteStructure,
    phi: Formula,
    x: str,
    a: Assignment | None = None,
    kappa: KappaThreshold = UNBOUNDED,
) -> frozenset[int]:
    """The set of elements e with phi true at x := e under the assignment."""
    env = dict(a or {})
    params = free_vars(phi) - {x}
    missing = params - env.keys()
    if missing:
        raise AssignmentError(f"unassigned free variables: {sorted(missing)}")
    check_kappa(phi, kappa)
    for var in params:
        if env[var] not in n.universe:
            raise DomainError(f"assignment sends {var!r} outside the universe")
    return _solution_sets(n, ((x, phi),), tuple(sorted((v, env[v]) for v in params)))[0]


def models(
    n: FiniteStructure, t: Theory, kappa: KappaThreshold = UNBOUNDED
) -> bool:
    """Whether n satisfies every sentence of the theory."""
    return all(eval(n, s, {}, kappa) for s in t.sentences)


def enumerate_models(
    t: Theory,
    vocab=None,
    max_size: int = 4,
    kappa: KappaThreshold = UNBOUNDED,
    up_to_iso: bool = True,
    max_raw: int = 5_000_000,
):
    """Models of the theory with universe size up to max_size, smallest first.

    Up to isomorphism over a vocabulary without functions, a theory whose
    sentences are universal over quantifier-free matrices is grown one point
    at a time: its models are closed under induced substructures
    (Łoś–Tarski), so enumerate_hereditary finds each of them.  Every other
    theory filters the structure stream.  Both give the same structures in
    the same order.
    """
    vocab = vocab or t.vocabulary
    if up_to_iso and not vocab.functions and all(
        is_quantifier_free(forall_prefix(s)[1]) for s in t.sentences
    ):
        yield from enumerate_hereditary(vocab, max_size, lambda s: models(s, t, kappa), max_raw)
        return
    for s in enumerate_structures(vocab, max_size, up_to_iso=up_to_iso, max_raw=max_raw):
        if models(s, t, kappa):
            yield s


# ---------------------------------------------------------------------------
# fragment elementarity


@dataclass(frozen=True)
class ElemReport:
    """Verdict of an elementarity check; falsy reports carry a witness."""

    ok: bool
    kind: str
    formula: Formula | None = None
    assignment: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


_OK = ElemReport(True, "ok")


def _assignments(elems: tuple[int, ...], phi: Formula, kappa: KappaThreshold):
    """Every assignment of phi's free variables into elems, sorted.

    phi is checked once, before its first assignment: its free variables
    against the sweep cap, and its targets against kappa when there is at
    least one assignment.
    """
    variables = sorted(free_vars(phi))
    if len(variables) > MAX_ELEM_FREE_VARS:
        raise CapacityError(
            f"{len(variables)} free variables exceed the exhaustive-sweep cap "
            f"of {MAX_ELEM_FREE_VARS} in {print_formula(phi)}",
            count=len(variables),
            limit=MAX_ELEM_FREE_VARS,
        )
    if elems or not variables:
        check_kappa(phi, kappa)
    for values in product(elems, repeat=len(variables)):
        yield dict(zip(variables, values))


def elem_F(
    n1: FiniteStructure,
    n2: FiniteStructure,
    f: Fragment,
    kappa: KappaThreshold = UNBOUNDED,
) -> ElemReport:
    """Truth agreement between a substructure and its parent on a fragment.

    Every fragment member is checked under every assignment of its free
    variables into the smaller universe.
    """
    if not n1.is_substructure_of(n2):
        return ElemReport(False, "not-substructure")
    elems = n1.elements
    for phi in f:
        test = _compiled(phi)
        for env in _assignments(elems, phi, kappa):
            if test(n1, env) != test(n2, env):
                return ElemReport(
                    False,
                    "truth-disagreement",
                    phi,
                    tuple(sorted(env.items())),
                )
    return _OK


def elem_F_star(
    n1: FiniteStructure,
    n2: FiniteStructure,
    f: Fragment,
    kappa: KappaThreshold = UNBOUNDED,
) -> ElemReport:
    """elem_F plus frozen solution sets for small quantifier instances.

    For each structure-matching quantifier in the fragment and each parameter
    assignment into the smaller structure whose main solution set is below
    the threshold, the main and every side solution set must be literally the
    same set in both structures.
    """
    base = elem_F(n1, n2, f, kappa)
    if not base:
        return base
    elems = n1.elements
    for chi in f.qstruct_members():
        slots = scopes(chi)
        for env in _assignments(elems, chi, kappa):
            # elem_F has evaluated chi here in both structures, so these are
            # the stored sets and none of them can raise
            params = tuple(sorted(env.items()))
            sets1 = _solution_sets(n1, slots, params)
            if not kappa.counts_as_small(len(sets1[0])):
                continue
            sets2 = _solution_sets(n2, slots, params)
            for i, ((x, _), set1, set2) in enumerate(zip(slots, sets1, sets2)):
                if set1 != set2:
                    return ElemReport(
                        False,
                        "solution-set-change",
                        chi,
                        tuple(sorted(env.items())),
                        detail=f"side solution set for {x!r}" if i else "main solution set",
                    )
    return _OK
