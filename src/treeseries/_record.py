"""Frozen value classes, built without the ``dataclasses`` module.

``@record`` turns a class whose own annotations name its fields, in order,
into an immutable value class with the behaviour of
``@dataclass(frozen=True)``:

- ``__init__`` takes the fields positionally or by keyword, with class-level
  values as defaults, sets each one through ``object.__setattr__`` and then
  calls ``self.__post_init__()`` when the class defines one;
- ``__eq__`` compares field tuples between instances of the same class only,
  and ``__hash__`` hashes the field tuple;
- ``__repr__`` reads ``Name(field=value, ...)``;
- assigning or deleting an attribute raises ``FrozenInstanceError``.

A method the class defines itself wins over the generated one.
``__init__``, ``__eq__`` and ``__hash__`` are on hot paths (tree enumeration
builds hundreds of thousands of trees), so they are generated per class from
one source string with one ``exec``, every field access spelled out.  Every
command-line run imports this package; ``dataclasses`` (which loads
``inspect``) and its per-class code generation cost several times as much.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    cls = type(self)
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in cls.__record_fields__)
    return f"{cls.__qualname__}({body})"


def record(cls):
    """Make ``cls`` a frozen value class (see the module docstring)."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    # a field without a default after one with a default is a SyntaxError
    params = [f"{name}=_default_{name}" if name in defaults else name for name in fields]
    values = "".join(f"self.{name}, " for name in fields)
    others = "".join(f"other.{name}, " for name in fields)
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    if len(lines) == 1:
        lines.append("    pass")
    lines += [
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({values}) == ({others})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({values}))",
    ]
    namespace = {"_set": object.__setattr__}
    namespace.update((f"_default_{name}", value) for name, value in defaults.items())
    exec("\n".join(lines), namespace)
    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for name in ("__init__", "__eq__", "__hash__"):
        method = methods[name] = namespace[name]
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__record_fields__ = fields
    return cls
