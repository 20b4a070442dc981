"""Built-in model classes exercising distinct order behaviors.

Four theory-defined classes over tiny vocabularies, each with a different
flavor of the starred order: initial segments of linear orders, induced
triangle-free subgraphs, a frozen unary predicate, and equivalence
relations whose blocks may not grow.  Two deliberately broken explicit
classes round out the set: one without closure-by-intersection, one whose
closure operator disagrees between a strong pair.

Each class also ships as an s-expression file under corpus/; the builders
here are the source of truth and the files must parse back equal.
"""

from __future__ import annotations

import itertools
import os

from .classspec import DefinedClass, ExplicitClass, load_class_spec, print_class_spec
from .structures import FiniteStructure
from .syntax import (
    Atomic,
    Equal,
    Forall,
    Formula,
    Not,
    Theory,
    Var,
    and_,
    implies,
    or_,
    qstruct,
    quantify,
)
from .translate import univ_gen_rewrite
from .vocab import EMPTY_VOCABULARY, Vocabulary

SIZE_CAP = 6

ORDER_VOCAB = Vocabulary({"lt": 2})
GRAPH_VOCAB = Vocabulary({"E": 2})
PRED_VOCAB = Vocabulary({"P": 1})


def chain(n: int) -> FiniteStructure:
    """The n-element strict linear order 0 < 1 < ... < n-1."""
    rows = {(i, j) for i in range(n) for j in range(n) if i < j}
    return FiniteStructure(ORDER_VOCAB, range(n), {"lt": rows})


def all_p(n: int) -> FiniteStructure:
    """n elements, every one satisfying P."""
    return FiniteStructure(PRED_VOCAB, range(n), {"P": {(i,) for i in range(n)}})


def clique_with_loops(n: int) -> FiniteStructure:
    """Complete reflexive graph on n elements: one equivalence block."""
    rows = set(itertools.product(range(n), repeat=2))
    return FiniteStructure(GRAPH_VOCAB, range(n), {"E": rows})


def bare_set(n: int) -> FiniteStructure:
    return FiniteStructure(EMPTY_VOCABULARY, range(n))


def _forall(names: list[str], body: Formula) -> Formula:
    return univ_gen_rewrite(quantify(Forall, names, body))


def linear_orders(size_cap: int = SIZE_CAP) -> DefinedClass:
    """Strict linear orders; the order relation is being an initial segment.

    The guarded sentence pins each element's predecessor set to a chain of
    size below the cap, so the starred order freezes predecessor sets:
    nothing may slide in below an existing element.
    """
    x, y, z = Var("x"), Var("y"), Var("z")
    lt = lambda a, b: Atomic("lt", (a, b))  # noqa: E731
    axioms = [
        _forall(["x"], Not(lt(x, x))),
        _forall(["x", "y", "z"], implies(and_(lt(x, y), lt(y, z)), lt(x, z))),
        _forall(["x", "y"], or_(Equal(x, y), lt(x, y), lt(y, x))),
    ]
    segments = Forall(
        "x",
        or_(
            *[
                qstruct(chain(n), "v", (), Atomic("lt", (Var("v"), x)), ())
                for n in range(size_cap)
            ]
        ),
    )
    theory = Theory(
        "linear-orders", ORDER_VOCAB, (*axioms, segments)
    )
    return DefinedClass("linear-orders", theory, size_cap=size_cap, hereditary=True)


def triangle_free(size_cap: int = SIZE_CAP) -> DefinedClass:
    """Triangle-free simple graphs under induced subgraphs."""
    x, y, z = Var("x"), Var("y"), Var("z")
    e = lambda a, b: Atomic("E", (a, b))  # noqa: E731
    axioms = [
        _forall(["x"], Not(e(x, x))),
        _forall(["x", "y"], implies(e(x, y), e(y, x))),
        _forall(["x", "y", "z"], Not(and_(e(x, y), e(y, z), e(x, z)))),
    ]
    theory = Theory("triangle-free", GRAPH_VOCAB, tuple(axioms))
    return DefinedClass("triangle-free", theory, size_cap=size_cap, hereditary=True)


def frozen_predicate(size_cap: int = SIZE_CAP) -> DefinedClass:
    """All unary-predicate structures, but P is frozen along the order.

    The single sentence bounds the P-set by a size above the class cap, so
    it excludes nothing — its role is purely to put the P solution set into
    the fragment, freezing it between order-related members.
    """
    sentence = or_(
        *[
            qstruct(all_p(n), "v", (), Atomic("P", (Var("v"),)), ())
            for n in range(size_cap + 1)
        ]
    )
    theory = Theory("frozen-predicate", PRED_VOCAB, (sentence,))
    return DefinedClass("frozen-predicate", theory, size_cap=size_cap, hereditary=True)


def bounded_blocks(size_cap: int = SIZE_CAP, block_cap: int = 2) -> DefinedClass:
    """Equivalence relations with blocks of at most block_cap elements.

    The guarded sentence pins each element's block to a small reflexive
    clique, so blocks are frozen along the order: a submodel's block may
    not pick up new elements in a larger member.
    """
    x, y, z = Var("x"), Var("y"), Var("z")
    e = lambda a, b: Atomic("E", (a, b))  # noqa: E731
    axioms = [
        _forall(["x"], e(x, x)),
        _forall(["x", "y"], implies(e(x, y), e(y, x))),
        _forall(["x", "y", "z"], implies(and_(e(x, y), e(y, z)), e(x, z))),
    ]
    blocks = Forall(
        "z",
        or_(
            *[
                qstruct(
                    clique_with_loops(n), "v", (), Atomic("E", (Var("v"), Var("z"))), ()
                )
                for n in range(1, block_cap + 1)
            ]
        ),
    )
    theory = Theory("bounded-blocks", GRAPH_VOCAB, (*axioms, blocks))
    return DefinedClass("bounded-blocks", theory, size_cap=size_cap, hereditary=True)


def broken_intersections() -> ExplicitClass:
    """Bare sets of sizes 3 and 4 only: closures of small seeds fall through.

    Inside the 4-element member every 3-subset is strong, so the
    intersection over them shrinks to a set with no representative.
    """
    return ExplicitClass(
        "broken-intersections", (bare_set(4), bare_set(3)), frozenset({(1, 0)})
    )


def broken_coherence() -> ExplicitClass:
    """Intersections hold, but closure disagrees between a strong pair.

    Singletons are strong in the 3-set but not in the 2-set (the order
    table omits that pair), so the closure of a point computed inside a
    strong 2-subset overshoots the closure computed in the 3-set.
    """
    reps = (bare_set(3), bare_set(2), bare_set(1), bare_set(0))
    order = frozenset({(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)})
    return ExplicitClass("broken-coherence", reps, order)


BUILDERS = {
    "linear-orders": linear_orders,
    "triangle-free": triangle_free,
    "frozen-predicate": frozen_predicate,
    "bounded-blocks": bounded_blocks,
    "broken-intersections": broken_intersections,
    "broken-coherence": broken_coherence,
}


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "corpus")


def corpus_path(name: str) -> str:
    return os.path.join(corpus_dir(), f"{name}.sexp")


def load_corpus_class(name: str):
    if name not in BUILDERS:
        raise KeyError(f"unknown corpus class {name!r}; have {sorted(BUILDERS)}")
    return load_class_spec(corpus_path(name))


def write_corpus_files(directory: str | None = None) -> list[str]:
    """Regenerate the shipped class files from the builders."""
    directory = directory or corpus_dir()
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, builder in sorted(BUILDERS.items()):
        path = os.path.join(directory, f"{name}.sexp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(print_class_spec(builder()) + "\n")
        written.append(path)
    return written
