"""Record classes: the methods a class's fields imply, written without `dataclasses`.

`record` reads a class's annotations (its fields, in order) and their
defaults, and adds `__init__`, `__eq__` and `__repr__`; a frozen record also
gets a hash that is computed once and stored, and refuses attribute
assignment and deletion.  A method the class defines itself is kept.

Each class gets one generated source that names its fields, so no method
loops over the fields when it is called.  Instances keep their `__dict__`,
which `functools.cached_property` writes into.
"""

from __future__ import annotations

_set = object.__setattr__


class field:
    """A default made fresh for each instance: `x: list = field(default_factory=list)`."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


_FACTORY = object()  # the parameter default that asks for the field's factory


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: `@record`, or `@record(frozen=True)` for a hashable record."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    names = list(cls.__dict__.get("__annotations__", {}))
    scope = {"_set": _set, "_FACTORY": _FACTORY}
    params, body = ["self"], []
    for name in names:
        value = name
        if name not in cls.__dict__:
            params.append(name)
        elif isinstance(cls.__dict__[name], field):
            scope[f"_factory_{name}"] = cls.__dict__[name].default_factory
            delattr(cls, name)
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        else:
            scope[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        body.append(f"    _set(self, {name!r}, {value})")
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")

    def fields_of(obj: str) -> str:
        return "(" + "".join(f"{obj}.{name}, " for name in names) + ")"

    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    lines = [
        f"def __init__({', '.join(params)}):",
        *body,
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {fields_of('self')} == {fields_of('other')}",
        "    return NotImplemented",
        "def __repr__(self):",
        f"    return f'{cls.__qualname__}({shown})'",
    ]
    methods = ["__init__", "__eq__", "__repr__"]
    if frozen:
        lines += [
            "def __hash__(self):",
            "    h = self._hash",
            "    if h is None:",
            f"        h = hash({fields_of('self')})",
            "        _set(self, '_hash', h)",
            "    return h",
            "def __setattr__(self, name, value):",
            "    raise AttributeError(f'cannot assign to field {name!r}')",
            "def __delattr__(self, name):",
            "    raise AttributeError(f'cannot delete field {name!r}')",
        ]
        methods += ["__hash__", "__setattr__", "__delattr__"]
        cls._hash = None  # until the first __hash__ stores the instance's own
    exec(compile("\n".join(lines) + "\n", f"<record {cls.__qualname__}>", "exec"), scope)
    for method in methods:
        if method not in cls.__dict__:
            setattr(cls, method, scope[method])
    if not frozen and "__hash__" not in cls.__dict__:
        cls.__hash__ = None
    return cls
