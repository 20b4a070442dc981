"""Finite relational/functional vocabularies.

A vocabulary is a finite set of relation symbols and function symbols with
arities.  Constants are function symbols of arity 0.  Relation arities must be
positive; names are pairwise distinct across both kinds.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import SignatureError


class Vocabulary:
    __slots__ = ("_relations", "_functions", "_key", "_hash")

    def __init__(
        self,
        relations: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        functions: Mapping[str, int] | Iterable[tuple[str, int]] = (),
    ):
        rels = dict(relations.items() if isinstance(relations, Mapping) else relations)
        funs = dict(functions.items() if isinstance(functions, Mapping) else functions)
        for name, arity in rels.items():
            if not isinstance(arity, int) or arity < 1:
                raise SignatureError(f"relation {name!r} needs a positive arity, got {arity!r}")
        for name, arity in funs.items():
            if not isinstance(arity, int) or arity < 0:
                raise SignatureError(f"function {name!r} needs a nonnegative arity, got {arity!r}")
        dup = set(rels) & set(funs)
        if dup:
            raise SignatureError(f"names used as both relation and function: {sorted(dup)}")
        self._relations = rels
        self._functions = funs
        self._key = (tuple(sorted(rels.items())), tuple(sorted(funs.items())))
        self._hash = hash(self._key)

    @property
    def relations(self) -> dict[str, int]:
        return dict(self._relations)

    @property
    def functions(self) -> dict[str, int]:
        return dict(self._functions)

    @property
    def key(self):
        return self._key

    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    def function_names(self) -> list[str]:
        return sorted(self._functions)

    def has_constants(self) -> bool:
        return any(a == 0 for a in self._functions.values())

    def rel_arity(self, name: str) -> int:
        try:
            return self._relations[name]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {name!r}") from None

    def fun_arity(self, name: str) -> int:
        try:
            return self._functions[name]
        except KeyError:
            raise SignatureError(f"unknown function symbol {name!r}") from None

    def is_subvocabulary_of(self, other: "Vocabulary") -> bool:
        return all(
            name in other._relations and other._relations[name] == arity
            for name, arity in self._relations.items()
        ) and all(
            name in other._functions and other._functions[name] == arity
            for name, arity in self._functions.items()
        )

    def union(self, other: "Vocabulary") -> "Vocabulary":
        rels = dict(self._relations)
        funs = dict(self._functions)
        for name, arity in other._relations.items():
            if rels.get(name, arity) != arity:
                raise SignatureError(f"relation {name!r} has conflicting arities")
            rels[name] = arity
        for name, arity in other._functions.items():
            if funs.get(name, arity) != arity:
                raise SignatureError(f"function {name!r} has conflicting arities")
            funs[name] = arity
        return Vocabulary(rels, funs)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = [f"{n}/{a}" for n, a in sorted(self._relations.items())]
        parts += [f"{n}()/{a}" for n, a in sorted(self._functions.items())]
        return f"Vocabulary({', '.join(parts)})"


EMPTY_VOCABULARY = Vocabulary()
