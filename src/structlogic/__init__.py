"""Finite-scale structural-quantifier logic: satisfaction, closure, axiomatization."""

from __future__ import annotations

from .errors import (
    ArityError,
    AssignmentError,
    CapacityError,
    DomainError,
    EmissionError,
    IntersectionFailure,
    KappaError,
    ParseError,
    PinError,
    ShapeError,
    SignatureError,
    StructLogicError,
    UniversalityError,
)
from .structures import (
    DecoratedStructure,
    FiniteStructure,
    decorated,
    enumerate_expansions,
    enumerate_structures,
    find_isomorphism,
    generated_substructure,
    normalize,
    reduct,
)
from .syntax import (
    And,
    App,
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
    ShapeReport,
    Term,
    Theory,
    UNBOUNDED,
    Var,
    free_vars,
    is_forall_qstruct,
    qstruct,
    subformula_closure,
    substitute,
    substitute_map,
)
from .vocab import EMPTY_VOCABULARY, Vocabulary

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
