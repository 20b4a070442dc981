"""Text formats for vocabularies, structures, formulas, theories, class specs.

Everything round-trips through s-expressions.  Printing is deterministic:
relations, tuples, and function tables come out sorted, so equal objects
print identically.  Structures are printed over a contiguous universe
0..n-1; relabel before printing anything else.
"""

from __future__ import annotations

from . import sexpr
from .errors import ParseError
from .structures import DecoratedStructure, FiniteStructure, decorated
from .syntax import (
    And,
    App,
    Atomic,
    Equal,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    QStruct,
    Term,
    Theory,
    Var,
    qstruct,
)
from .vocab import Vocabulary

_FORMULA_HEADS = {"rel", "=", "not", "and", "or", "exists", "forall", "qstruct"}


def _expect_list(node, what: str) -> list:
    if not isinstance(node, list):
        raise ParseError(f"expected a list for {what}, found {sexpr.write(node)}")
    return node


def _expect_symbol(node, what: str) -> str:
    if not isinstance(node, str):
        raise ParseError(f"expected a symbol for {what}, found {sexpr.write(node)}")
    return node


def _expect_int(node, what: str) -> int:
    if not isinstance(node, int):
        raise ParseError(f"expected an integer for {what}, found {sexpr.write(node)}")
    return node


def _head(node: list) -> str:
    if not node or not isinstance(node[0], str):
        raise ParseError(f"form has no head symbol: {sexpr.write(node)}")
    return node[0]


# ---------------------------------------------------------------------------
# vocabularies


def vocab_from_node(node) -> Vocabulary:
    items = _expect_list(node, "vocabulary")
    if _head(items) != "vocab":
        raise ParseError(f"expected (vocab ...), found {sexpr.write(node)}")
    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    for entry in items[1:]:
        entry = _expect_list(entry, "vocabulary entry")
        kind = _head(entry)
        if kind == "rel":
            if len(entry) != 3:
                raise ParseError(f"expected (rel name arity): {sexpr.write(entry)}")
            table, name = relations, _expect_symbol(entry[1], "relation name")
            arity = _expect_int(entry[2], "relation arity")
        elif kind == "fun":
            if len(entry) != 3:
                raise ParseError(f"expected (fun name arity): {sexpr.write(entry)}")
            table, name = functions, _expect_symbol(entry[1], "function name")
            arity = _expect_int(entry[2], "function arity")
        elif kind == "const":
            if len(entry) != 2:
                raise ParseError(f"expected (const name): {sexpr.write(entry)}")
            table, name, arity = functions, _expect_symbol(entry[1], "constant name"), 0
        else:
            raise ParseError(f"unknown vocabulary entry {kind!r}")
        if name in relations or name in functions:
            raise ParseError(f"symbol {name!r} is declared twice in the vocabulary")
        table[name] = arity
    return Vocabulary(relations, functions)


def vocab_to_node(v: Vocabulary) -> list:
    out: list = ["vocab"]
    for name, arity in sorted(v.relations.items()):
        out.append(["rel", name, arity])
    for name, arity in sorted(v.functions.items()):
        if arity == 0:
            out.append(["const", name])
        else:
            out.append(["fun", name, arity])
    return out


# ---------------------------------------------------------------------------
# structures


def structure_from_node(node) -> FiniteStructure:
    items = _expect_list(node, "structure")
    if _head(items) != "structure":
        raise ParseError(f"expected (structure ...), found {sexpr.write(node)[:80]}")
    vocab: Vocabulary | None = None
    size: int | None = None
    universe: frozenset[int] | None = None
    relations: dict[str, set[tuple[int, ...]]] = {}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    for entry in items[1:]:
        entry = _expect_list(entry, "structure entry")
        kind = _head(entry)
        if kind == "vocab":
            vocab = vocab_from_node(entry)
        elif kind == "universe":
            if len(entry) != 2:
                raise ParseError(f"expected (universe n) or (universe (e ...)): {sexpr.write(entry)}")
            if isinstance(entry[1], list):
                # explicit element list, for non-contiguous universes
                universe = frozenset(_expect_int(x, "element") for x in entry[1])
            else:
                size = _expect_int(entry[1], "universe size")
                if size < 0:
                    raise ParseError(f"universe size must be at least 0, got {size}")
        elif kind == "rel":
            if len(entry) < 2:
                raise ParseError(f"expected (rel name row ...): {sexpr.write(entry)}")
            name = _expect_symbol(entry[1], "relation name")
            rows = relations.setdefault(name, set())
            for row in entry[2:]:
                row = _expect_list(row, "relation tuple")
                rows.add(tuple(_expect_int(x, "element") for x in row))
        elif kind == "fun":
            if len(entry) < 2:
                raise ParseError(f"expected (fun name row ...): {sexpr.write(entry)}")
            name = _expect_symbol(entry[1], "function name")
            table = functions.setdefault(name, {})
            for row in entry[2:]:
                row = _expect_list(row, "function row")
                if not row:
                    raise ParseError("function row needs at least a value")
                cells = tuple(_expect_int(x, "element") for x in row)
                table[cells[:-1]] = cells[-1]
        elif kind == "const":
            if len(entry) != 3:
                raise ParseError(f"expected (const name value): {sexpr.write(entry)}")
            name = _expect_symbol(entry[1], "constant name")
            functions.setdefault(name, {})[()] = _expect_int(entry[2], "constant value")
        else:
            raise ParseError(f"unknown structure entry {kind!r}")
    if vocab is None:
        raise ParseError("structure is missing its (vocab ...) entry")
    if size is None and universe is None:
        raise ParseError("structure is missing its (universe ...) entry")
    return FiniteStructure(
        vocab, universe if universe is not None else range(size), relations, functions
    )


def structure_to_node(s: FiniteStructure) -> list:
    n = s.size
    if sorted(s.universe) == list(range(n)):
        universe_node: list | int = n
    else:
        universe_node = sorted(s.universe)
    out: list = ["structure", vocab_to_node(s.vocab), ["universe", universe_node]]
    for name in sorted(s.vocab.relations):
        rows = sorted(s.rel(name))
        out.append(["rel", name, *[list(r) for r in rows]])
    for name in sorted(s.vocab.functions):
        if s.vocab.fun_arity(name) == 0:
            out.append(["const", name, s.constant(name)])
        else:
            table = s.fun(name)
            out.append(["fun", name, *[[*args, val] for args, val in sorted(table.items())]])
    return out


def _subsets(entries) -> list[frozenset[int]]:
    """The element lists of a (subsets ...) form, after its head."""
    return [
        frozenset(_expect_int(x, "element") for x in _expect_list(entry, "subset"))
        for entry in entries
    ]


def decorated_from_node(node) -> DecoratedStructure:
    items = _expect_list(node, "decorated structure")
    head = _head(items)
    if head == "structure":
        return decorated(structure_from_node(items), ())
    if head != "decorated":
        raise ParseError(f"expected (decorated ...) or (structure ...), found {head!r}")
    if len(items) != 3:
        raise ParseError("expected (decorated <structure> (subsets ...))")
    base = structure_from_node(items[1])
    sub = _expect_list(items[2], "subsets")
    if _head(sub) != "subsets":
        raise ParseError(f"expected (subsets ...), found {sexpr.write(items[2])}")
    return decorated(base, _subsets(sub[1:]))


def decorated_to_node(d: DecoratedStructure) -> list:
    if not d.subsets:
        return structure_to_node(d.base)
    return [
        "decorated",
        structure_to_node(d.base),
        ["subsets", *[sorted(sub) for sub in d.subsets]],
    ]


# ---------------------------------------------------------------------------
# terms and formulas


def term_from_node(node) -> Term:
    if isinstance(node, str):
        return Var(node)
    if isinstance(node, list):
        head = _head(node)
        if head in _FORMULA_HEADS:
            raise ParseError(f"formula head {head!r} used in term position")
        return App(head, tuple(term_from_node(a) for a in node[1:]))
    raise ParseError(f"expected a term, found {sexpr.write(node)}")


def term_to_node(t: Term):
    if isinstance(t, Var):
        return t.name
    return [t.fun, *[term_to_node(a) for a in t.args]]


def formula_from_node(node) -> Formula:
    items = _expect_list(node, "formula")
    head = _head(items)
    if head == "rel":
        if len(items) < 2:
            raise ParseError("expected (rel name terms...)")
        return Atomic(
            _expect_symbol(items[1], "relation name"),
            tuple(term_from_node(t) for t in items[2:]),
        )
    if head == "=":
        if len(items) != 3:
            raise ParseError("expected (= t1 t2)")
        return Equal(term_from_node(items[1]), term_from_node(items[2]))
    if head == "not":
        if len(items) != 2:
            raise ParseError("expected (not f)")
        return Not(formula_from_node(items[1]))
    if head in ("and", "or"):
        parts = tuple(formula_from_node(f) for f in items[1:])
        if not parts:
            raise ParseError(f"({head}) needs at least one part")
        return And(parts) if head == "and" else Or(parts)
    if head in ("exists", "forall"):
        if len(items) != 3:
            raise ParseError(f"expected ({head} x f)")
        var = _expect_symbol(items[1], "bound variable")
        body = formula_from_node(items[2])
        return Exists(var, body) if head == "exists" else Forall(var, body)
    if head == "qstruct":
        # (qstruct <structure> [(subsets (i...)...)] x (y...) phi (psi...))
        rest = items[1:]
        if not rest:
            raise ParseError("expected (qstruct <structure> ... )")
        base = structure_from_node(rest[0])
        rest = rest[1:]
        subsets: list[frozenset[int]] = []
        if rest and isinstance(rest[0], list) and rest[0] and rest[0][0] == "subsets":
            subsets = _subsets(rest[0][1:])
            rest = rest[1:]
        if len(rest) != 4:
            raise ParseError("expected (qstruct <structure> [(subsets ...)] x (y...) phi (psi...))")
        var = _expect_symbol(rest[0], "bound variable")
        yvars = tuple(
            _expect_symbol(y, "side variable")
            for y in _expect_list(rest[1], "side variables")
        )
        phi = formula_from_node(rest[2])
        psis = tuple(
            formula_from_node(p) for p in _expect_list(rest[3], "side formulas")
        )
        if len(psis) != len(yvars):
            raise ParseError(f"{len(yvars)} side variables but {len(psis)} side formulas")
        return qstruct(decorated(base, subsets), var, yvars, phi, psis)
    raise ParseError(f"unknown formula head {head!r}")


def formula_to_node(phi: Formula):
    if isinstance(phi, Atomic):
        return ["rel", phi.rel, *[term_to_node(t) for t in phi.terms]]
    if isinstance(phi, Equal):
        return ["=", term_to_node(phi.left), term_to_node(phi.right)]
    if isinstance(phi, Not):
        return ["not", formula_to_node(phi.body)]
    if isinstance(phi, And):
        return ["and", *[formula_to_node(f) for f in phi.items]]
    if isinstance(phi, Or):
        return ["or", *[formula_to_node(f) for f in phi.items]]
    if isinstance(phi, Exists):
        return ["exists", phi.var, formula_to_node(phi.body)]
    if isinstance(phi, Forall):
        return ["forall", phi.var, formula_to_node(phi.body)]
    if isinstance(phi, QStruct):
        out: list = ["qstruct", structure_to_node(phi.target.base)]
        if phi.target.subsets:
            out.append(["subsets", *[sorted(sub) for sub in phi.target.subsets]])
        out.extend(
            [
                phi.var,
                list(phi.yvars),
                formula_to_node(phi.phi),
                [formula_to_node(p) for p in phi.psis],
            ]
        )
        return out
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# theories


def theory_from_node(node) -> Theory:
    items = _expect_list(node, "theory")
    if _head(items) != "theory":
        raise ParseError(f"expected (theory ...), found {sexpr.write(node)[:80]}")
    name: str | None = None
    vocab: Vocabulary | None = None
    sentences: list[Formula] = []
    for entry in items[1:]:
        entry = _expect_list(entry, "theory entry")
        kind = _head(entry)
        if kind == "name":
            if len(entry) != 2:
                raise ParseError(f"expected (name n): {sexpr.write(entry)}")
            name = _expect_symbol(entry[1], "theory name")
        elif kind == "vocab":
            vocab = vocab_from_node(entry)
        elif kind == "sentence":
            if len(entry) != 2:
                raise ParseError("expected (sentence f)")
            sentences.append(formula_from_node(entry[1]))
        else:
            raise ParseError(f"unknown theory entry {kind!r}")
    if name is None:
        raise ParseError("theory is missing its (name ...) entry")
    if vocab is None:
        raise ParseError("theory is missing its (vocab ...) entry")
    return Theory(name, vocab, tuple(sentences))


def theory_to_node(t: Theory) -> list:
    return [
        "theory",
        ["name", t.name],
        vocab_to_node(t.vocabulary),
        *[["sentence", formula_to_node(s)] for s in t.sentences],
    ]


# ---------------------------------------------------------------------------
# convenience string front ends


def read_text(path: str) -> str:
    """The text of an input file, read as UTF-8."""
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def parse_vocab(text: str) -> Vocabulary:
    return vocab_from_node(sexpr.parse_one(text))


def parse_structure(text: str) -> FiniteStructure:
    return structure_from_node(sexpr.parse_one(text))


def parse_decorated(text: str) -> DecoratedStructure:
    return decorated_from_node(sexpr.parse_one(text))


def parse_formula(text: str) -> Formula:
    return formula_from_node(sexpr.parse_one(text))


def parse_theory(text: str) -> Theory:
    return theory_from_node(sexpr.parse_one(text))


def print_vocab(v: Vocabulary) -> str:
    return sexpr.write(vocab_to_node(v))


def print_structure(s: FiniteStructure) -> str:
    return sexpr.write(structure_to_node(s))


def print_decorated(d: DecoratedStructure) -> str:
    return sexpr.write(decorated_to_node(d))


def print_formula(phi: Formula) -> str:
    return sexpr.write(formula_to_node(phi))


def print_theory(t: Theory, pretty: bool = True) -> str:
    node = theory_to_node(t)
    return sexpr.write_pretty(node) if pretty else sexpr.write(node)
