"""Satisfaction, solution sets, fragment elementarity, bounded model search.

The structure-matching quantifier holds when (a) every side solution set is
contained in the main solution set and (b) the main solution set carries an
induced target-vocabulary substructure isomorphic to the target, with side
sets landing exactly on the target's designated subsets.  When the main
solution set is not closed under the target vocabulary's functions, no such
substructure exists and the quantifier is false rather than an error.

Each formula is turned once, on first use, into the Python source of one
function f(n, values), which is compiled and kept on the formula node;
values are its free variables' values in the sorted order of their names,
which the function keeps as its `variables`.  A quantifier-free subformula
becomes one boolean expression over positional locals: `in` on a relation's
row set, indexing into a function's table, `==`, `and`, `or` and `not`.  The
tables a function reads are fetched once per call, each by symbol and
arity; one the structure lacks, or has at another arity, raises only when it
is read (a relation of another arity raises the audit's ArityError).  An
Exists/Forall whose free variables include every variable bound by a loop
around it in the same function, and which holds no structure quantifier, is
inlined as a loop over the universe with no memo: within one call no loop
around it repeats its parameter values.  Every other Exists/Forall, and
every structure quantifier, keeps a sweep of the same signature on its node,
memoised by `_swept` in the structure's memo per sweep and parameter values,
so formulas sharing the node share its entries.

Three weak interners make equal work one object while anything holds it:
Exists/Forall sweeps by their code and constants (`_BINDER_SWEEPS`), so
alpha-variant nodes, such as the relativized guards `qstruct_to_counting`
copies per bound variable, share one sweep and its entries; structure
quantifiers' sweeps by their slots (`_SLOT_SWEEPS`), so the disjuncts of a
type disjunction share one entry; and targets by key (`_TARGETS`).  A
structure quantifier's sweep gives its main and side solution sets as int
masks over the structure's elements, bit i standing for n.elements[i], so
each set is one int and needs no sharing table.  `_matches` compares
them with the target's row counts and canonical rows: it rejects on the main
set's size and the side sets' containment in it, on ints; any other verdict
reads n's rows of the target's symbols inside the main set's elements,
listed in increasing order, rejects on closure and row counts, and labels
only a part that passes, building no structure, and lives in the
structure's memo.  Masks become elements only there and in
`solution_set`; `elem_F_star` compares a part's masks with its host's by
moving them onto the host's elements.

No formula text enters the source: variables are the locals a0, a1, ..., and
symbol names, targets and sweeps are the constants c0, c1, ..., bound as the
defaults of the function's last parameters.  A symbol named `if` or `x.y` is
therefore harmless, and formulas of one shape share one compiled code object
(`_code`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from types import CodeType, FunctionType
from weakref import WeakValueDictionary

from .errors import (
    ArityError,
    AssignmentError,
    CapacityError,
    DomainError,
    SignatureError,
    StructLogicError,
)
from .formats import print_formula
from .records import record
from .structures import (
    DecoratedStructure,
    FiniteStructure,
    MatchTarget,
    enumerate_hereditary,
    enumerate_structures,
    induces_copy,
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
    audit_formula,
    check_kappa,
    forall_prefix,
    free_vars,
    has_qstruct,
    is_quantifier_free,
    scopes,
)

MAX_ELEM_FREE_VARS = 6

Assignment = dict[str, int]

# ---------------------------------------------------------------------------
# code generation

# precedence of a generated expression's outermost operator, loosest first
_OR, _AND, _NOT, _TEST, _ATOM = range(5)
# brackets one generated expression may nest before it moves into a helper
# function; Python's parser refuses more than 200
_MAX_NESTING = 50


def _tuple(items) -> str:
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _Source:
    """The source of one generated function, and the constants it binds.

    The function is `f(n, values, c0, c1, ...)`, the constants c0, c1, ...
    bound as the defaults of its last parameters; the locals a0, a1, ... hold
    elements, and r0, f1, ... the tables of relation and function symbols.
    Its attribute `variables` names the parameters that values gives, sorted.
    """

    def __init__(self):
        self.consts: list = []
        self.index: dict = {}
        self.tables: dict[tuple, str] = {}  # ("r" or "f", symbol, arity) -> local
        self.count = 0
        self.elements = False  # whether the function reads the universe E
        self.head: list[str] = []
        self.helpers: list[str] = []

    def const(self, value) -> str:
        key = value if isinstance(value, str) else id(value)
        if key not in self.index:
            self.index[key] = f"c{len(self.consts)}"
            self.consts.append(value)
        return self.index[key]

    def local(self) -> str:
        self.count += 1
        return f"a{self.count - 1}"

    def params(self, variables) -> dict[str, str]:
        """Locals for the function's parameters, unpacked from values."""
        self.variables = tuple(variables)
        names = {v: self.local() for v in variables}
        if names:
            self.head.append(f"{', '.join(names.values())}, = values")
        return names

    def table(self, kind: str, symbol: str, arity: int) -> str:
        """The local holding n's table of the symbol at the arity: kind "r" for a
        relation's row set, "f" for a function's table."""
        key = (kind, symbol, arity)
        if key not in self.tables:
            self.tables[key] = f"{kind}{len(self.tables)}"
        return self.tables[key]

    def helper(self, text: str, names) -> str:
        """A call of a new helper function returning text: Python's parser
        refuses an expression nested too deeply, so a deep one is split."""
        self.elements = True
        params = ", ".join(["n", "E", *self.tables.values(), *sorted(set(names.values()))])
        name = f"h{len(self.helpers) // 2}"
        self.helpers += [f"def {name}({params}):", f"    return {text}"]
        return f"{name}({params})"

    def term(self, t: Term, names) -> tuple[str, int]:
        if isinstance(t, Var):
            return names[t.name], 0
        args = [self.term(a, names) for a in t.args]
        text = f"{self.table('f', t.fun, len(t.args))}[{_tuple(a for a, _ in args)}]"
        depth = 2 + max((d for _, d in args), default=0)
        return (self.helper(text, names), 1) if depth > _MAX_NESTING else (text, depth)

    def expr(self, phi: Formula, names, bound: frozenset) -> tuple[str, int, int]:
        """phi as an expression: its text, precedence and bracket nesting.

        names maps each variable in scope to its local; bound holds the
        locals of the loops around phi in this function.
        """
        negate = False
        while isinstance(phi, Not):
            phi, negate = phi.body, not negate
        text, prec, depth = self._positive(phi, names, bound)
        if negate:
            text, depth = self.wrap(text, prec, depth, _NOT)
            text, prec = f"not {text}", _NOT
        if depth > _MAX_NESTING:
            return self.helper(text, names), _ATOM, 1
        return text, prec, depth

    @staticmethod
    def wrap(text: str, prec: int, depth: int, least: int) -> tuple[str, int]:
        """text in brackets when its operator binds more loosely than least."""
        return (f"({text})", depth + 1) if prec < least else (text, depth)

    def _positive(self, phi: Formula, names, bound: frozenset) -> tuple[str, int, int]:
        if isinstance(phi, Atomic):
            rows = [self.term(t, names) for t in phi.terms]
            depth = 1 + max((d for _, d in rows), default=0)
            table = self.table("r", phi.rel, len(rows))
            return f"{_tuple(r for r, _ in rows)} in {table}", _TEST, depth
        if isinstance(phi, Equal):
            (left, d1), (right, d2) = self.term(phi.left, names), self.term(phi.right, names)
            return f"{left} == {right}", _TEST, max(d1, d2)
        if isinstance(phi, (And, Or)):
            op, prec = (" and ", _AND) if isinstance(phi, And) else (" or ", _OR)
            items = [self.expr(item, names, bound) for item in phi.items]
            if len(items) == 1:
                return items[0]
            items = [self.wrap(text, p, d, prec) for text, p, d in items]
            return op.join(text for text, _ in items), prec, max(d for _, d in items)
        if isinstance(phi, (Exists, Forall)):
            free = free_vars(phi)
            if {names[v] for v in free} >= bound and not has_qstruct(phi.body):
                local, self.elements = self.local(), True
                body, _, depth = self.expr(phi.body, {**names, phi.var: local}, bound | {local})
                loop = "any" if isinstance(phi, Exists) else "all"
                return f"{loop}({body} for {local} in E)", _ATOM, depth + 1
            values = _tuple(names[v] for v in sorted(free))
            return f"_swept(n, {self.const(_sweep(phi))}, {values})", _ATOM, 2
        if isinstance(phi, QStruct):
            values = _tuple(names[v] for v in sorted(free_vars(phi)))
            target = self.const(_target(phi.target))
            sets = f"_swept(n, {self.const(_sweep(phi))}, {values})"
            text = (
                f"(n.vocab is {target}.admitted or _admit(n, {target})) "
                f"and _matches(n, {target}, *{sets})"
            )
            return text, _AND, 3
        raise TypeError(f"not a formula: {phi!r}")

    def build(self, lines: list[str]):
        """The function with the given body, the constants its last parameters' defaults."""
        head = list(self.head)
        if self.elements:
            head.append("E = n.elements")
        for (kind, symbol, arity), local in self.tables.items():
            fetch = "_relation_table" if kind == "r" else "_function_table"
            head.append(f"{local} = {fetch}(n, {self.const(symbol)}, {arity!r})")
        params = "".join(f", c{i}" for i in range(len(self.consts)))
        body = "".join(f"    {line}\n" for line in [*self.helpers, *head, *lines])
        code = _code(f"def f(n, values{params}):\n{body}")
        fn = FunctionType(code, _RUNTIME, "f", tuple(self.consts))
        fn.variables = self.variables
        return fn


@lru_cache(maxsize=4096)
def _code(source: str) -> CodeType:
    """The code of the one function a generated source defines, compiled once
    per distinct text; the text names no formula symbol."""
    return compile(source, "<generated>", "exec").co_consts[0]


class _Unreadable:
    """Stands in for a table the structure lacks, or has at another arity.

    A function fetches its tables once per call but may never read one, so
    the error is raised on reading: by the structure's own accessor, and for
    a relation of another arity as `syntax.audit_formula` raises it.
    """

    __slots__ = ("n", "name")

    def __init__(self, n: FiniteStructure, name: str):
        self.n, self.name = n, name

    def __contains__(self, row):
        arity = self.n.vocab.rel_arity(self.name)  # SignatureError for a symbol n lacks
        raise ArityError(f"relation {self.name!r} expects {arity} terms")

    def __getitem__(self, args):
        return self.n.apply(self.name, args)


def _relation_table(n: FiniteStructure, name: str, arity: int):
    """n's rows of the relation symbol, or a stand-in when n has none at arity."""
    rows = n.relations.get(name)
    if rows is None or n.vocab.rel_arity(name) != arity:
        return _Unreadable(n, name)
    return rows


def _function_table(n: FiniteStructure, name: str, arity: int):
    """n's table of the function symbol, or a stand-in when n has none at arity."""
    try:
        if n.vocab.fun_arity(name) == arity:
            return n.fun(name)
    except SignatureError:
        pass
    return _Unreadable(n, name)


def _admit(n: FiniteStructure, target: MatchTarget) -> bool:
    """Check a quantifier's target vocabulary against n's; remember n's as admitted."""
    if not target.vocab.is_subvocabulary_of(n.vocab):
        raise SignatureError(
            "quantifier target vocabulary is not a sub-vocabulary of the structure's"
        )
    target.admitted = n.vocab
    return True


def _compiled(phi: Formula):
    """phi's test (structure, values of its free variables) -> bool, kept on phi."""
    try:
        return phi._compiled
    except AttributeError:
        pass
    src = _Source()
    names = src.params(sorted(free_vars(phi)))
    test = src.build([f"return {src.expr(phi, names, frozenset())[0]}"])
    object.__setattr__(phi, "_compiled", test)
    return test


def _sweep(phi: Exists | Forall | QStruct):
    """The node's sweep (structure, values of its free variables), kept on phi:
    an Exists/Forall's loop, or a structure quantifier's `_slot_sweep`."""
    try:
        return phi._sweep
    except AttributeError:
        pass
    if isinstance(phi, QStruct):
        sweep = _slot_sweep(scopes(phi))
    else:
        src = _Source()
        names = src.params(sorted(free_vars(phi)))
        local, src.elements = src.local(), True
        exists = isinstance(phi, Exists)
        # the loop stops at the first body value equal to exists
        body = phi.body if exists else Not(phi.body)
        test = src.expr(body, {**names, phi.var: local}, frozenset((local,)))[0]
        lines = [f"for {local} in E:", f"    if {test}:", f"        return {exists}"]
        sweep = src.build([*lines, f"return {not exists}"])
        # alpha-variant nodes compile to one function of their parameters'
        # values, which each caller passes in its own variables' order; its
        # `variables` are the first node's names, so no caller reads them
        sweep = _BINDER_SWEEPS.setdefault((sweep.__code__, sweep.__defaults__), sweep)
    object.__setattr__(phi, "_sweep", sweep)
    return sweep


# Exists/Forall sweeps by (code, constants), structure quantifiers' by slots
_BINDER_SWEEPS = WeakValueDictionary()
_SLOT_SWEEPS = WeakValueDictionary()


def _slot_sweep(slots: tuple):
    """The sweep (structure, parameter values) -> (main set, side sets) of the
    slots, each set a mask over the structure's elements: bit i is n.elements[i].

    One function per equal slots tuple while any quantifier or memo entry
    holds it, so quantifiers with equal slots share `_swept` entries.
    """
    sweep = _SLOT_SWEEPS.get(slots)
    if sweep is not None:
        return sweep
    src = _Source()
    names = src.params(sorted(frozenset().union(*(free_vars(b) - {x} for x, b in slots))))
    src.elements = True
    sets = []
    for x, body in slots:
        local = src.local()
        test = src.expr(body, {**names, x: local}, frozenset((local,)))[0]
        sets.append(f"sum([1 << i for i, {local} in enumerate(E) if {test}])")
    main, *sides = sets
    sweep = _SLOT_SWEEPS[slots] = src.build([f"return {main}, {_tuple(sides)}"])
    return sweep


def _picked(items, mask: int) -> list:
    """The items at mask's set bits, lowest bit first."""
    return [items[i] for i in range(mask.bit_length()) if mask >> i & 1]


def _swept(n: FiniteStructure, sweep, values: tuple):
    """The sweep in n at its parameter values, kept in n's memo: an
    Exists/Forall node's truth value, or a quantifier's main and side sets."""
    key = sweep, values
    found = n.memo.get(key)
    if found is None:
        found = n.memo[key] = sweep(n, values)
    return found


_TARGETS = WeakValueDictionary()


def _target(target: DecoratedStructure) -> MatchTarget:
    """The target's row counts and canonical rows, labelled once per target key
    while any compiled quantifier or memo entry holds them, so equal targets
    share `_matches` entries.  `qstruct` puts every target within the
    labelling cap in canonical form, so its key is the canonical key."""
    found = _TARGETS.get(target.key)
    if found is None:
        found = _TARGETS[target.key] = MatchTarget(target)
    return found


def _matches(n: FiniteStructure, target: MatchTarget, main: int, sides: tuple) -> bool:
    """Whether main, decorated by sides, induces a copy of the target in n; the
    sets are masks over n's elements.  A main set of another size, or a side
    set outside it, is rejected at once, on the masks, and takes no memo
    entry.  Any other verdict is kept in n's memo: `induces_copy` of the sets'
    elements in increasing order, which reads n's rows of the target's
    symbols, rejects on closure and row counts, and labels only a part that
    passes them, building no structure and leaving no labelling entry."""
    if main.bit_count() != target.size:
        return False
    for side in sides:
        if side & ~main:
            return False
    key = target, main, sides
    found = n.memo.get(key)
    if found is None:
        elems = n.elements
        found = n.memo[key] = induces_copy(
            n, target, _picked(elems, main), tuple([_picked(elems, side) for side in sides])
        )
    return found


_RUNTIME = {
    "_admit": _admit,
    "_function_table": _function_table,
    "_matches": _matches,
    "_relation_table": _relation_table,
    "_swept": _swept,
}


def _values(n: FiniteStructure, phi: Formula, variables: tuple, a, kappa: KappaThreshold):
    """The values the assignment gives the variables, checked in turn: every
    variable assigned, inside n's universe, then phi's targets within kappa."""
    env = dict(a or {})
    try:
        values = tuple([env[var] for var in variables])
    except KeyError:
        missing = [var for var in variables if var not in env]
        raise AssignmentError(f"unassigned free variables: {missing}") from None
    if not n.universe.issuperset(values):
        var = next(var for var, value in zip(variables, values) if value not in n.universe)
        raise DomainError(f"assignment sends {var!r} outside the universe")
    check_kappa(phi, kappa)
    return values


def eval(  # noqa: A001 - interface name fixed by contract
    n: FiniteStructure,
    phi: Formula,
    a: Assignment | None = None,
    kappa: KappaThreshold = UNBOUNDED,
) -> bool:
    """Truth of phi in n under the assignment, gated by the size threshold."""
    test = _compiled(phi)
    return test(n, _values(n, phi, test.variables, a, kappa))


def solution_set(
    n: FiniteStructure,
    phi: Formula,
    x: str,
    a: Assignment | None = None,
    kappa: KappaThreshold = UNBOUNDED,
) -> frozenset[int]:
    """The set of elements e with phi true at x := e under the assignment."""
    sweep = _slot_sweep(((x, phi),))
    main, _ = _swept(n, sweep, _values(n, phi, sweep.variables, a, kappa))
    return frozenset(_picked(n.elements, main))


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


@record(frozen=True)
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


def _check_sweep_cap(phi: Formula, count: int) -> None:
    if count > MAX_ELEM_FREE_VARS:
        raise CapacityError(
            f"{count} free variables exceed the exhaustive-sweep cap "
            f"of {MAX_ELEM_FREE_VARS} in {print_formula(phi)}",
            count=count,
            limit=MAX_ELEM_FREE_VARS,
        )


def _well_formed(phi: Formula, vocab) -> bool:
    try:
        audit_formula(phi, vocab)
    except StructLogicError:
        return False
    return True


def _assignments(elems: tuple[int, ...], phi: Formula, variables: tuple, kappa: KappaThreshold):
    """Every tuple of values in elems for phi's free variables, sorted.

    phi is checked first: its free variables against the sweep cap, and its
    targets against kappa when there is at least one assignment.
    """
    _check_sweep_cap(phi, len(variables))
    if elems or not variables:
        check_kappa(phi, kappa)
    return product(elems, repeat=len(variables))


def elem_F(
    n1: FiniteStructure,
    n2: FiniteStructure,
    f: Fragment,
    kappa: KappaThreshold = UNBOUNDED,
) -> ElemReport:
    """Truth agreement between a substructure and its parent on a fragment.

    Every fragment member is checked under every assignment of its free
    variables into the smaller universe, except a quantifier-free member
    that is well formed over the vocabulary: an induced substructure agrees
    with its parent on it, so only its free variables are checked against
    the sweep cap.  A member that fails the audit is evaluated, so it raises
    where it is read, as any other.
    """
    if not n1.is_substructure_of(n2):
        return ElemReport(False, "not-substructure")
    elems = n1.elements
    for phi in f:
        if is_quantifier_free(phi) and _well_formed(phi, n1.vocab):
            _check_sweep_cap(phi, len(free_vars(phi)))
            continue
        test = _compiled(phi)
        variables = test.variables
        for values in _assignments(elems, phi, variables, kappa):
            if test(n1, values) != test(n2, values):
                return ElemReport(False, "truth-disagreement", phi, tuple(zip(variables, values)))
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
    moved = None
    for chi in f.qstruct_members():
        # elem_F has checked chi and evaluated it here in both structures, so
        # these are the stored sets and none of them can raise
        sweep = _sweep(chi)
        variables = sweep.variables
        for values in product(elems, repeat=len(variables)):
            main1, sides1 = _swept(n1, sweep, values)
            if not kappa.counts_as_small(main1.bit_count()):
                continue
            main2, sides2 = _swept(n2, sweep, values)
            if moved is None:
                moved = _MovedMasks(n1, n2)
            if moved[main1] != main2:
                detail = "main solution set"
            else:
                for y, set1, set2 in zip(chi.yvars, sides1, sides2):
                    if moved[set1] != set2:
                        detail = f"side solution set for {y!r}"
                        break
                else:
                    continue
            where = tuple(zip(variables, values))
            return ElemReport(False, "solution-set-change", chi, where, detail=detail)
    return _OK


class _MovedMasks(dict):
    """Masks over a substructure's elements, each moved to the mask of the same
    elements over its parent's on first use, so the table holds only the masks
    read and never grows as 2^|part|."""

    __slots__ = ("bits",)

    def __init__(self, n1: FiniteStructure, n2: FiniteStructure):
        index = {e: i for i, e in enumerate(n2.elements)}
        self.bits = [1 << index[e] for e in n1.elements]

    def __missing__(self, mask: int) -> int:
        moved = self[mask] = sum(_picked(self.bits, mask))
        return moved
