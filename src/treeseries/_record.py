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

A method the class defines itself wins over the shared one.  The methods
are closures over the field tuple, so decorating a class compiles no code;
``dataclasses`` (which loads ``inspect``) and per-class code generation cost
every command-line run more.  ``Tree``, built in bulk, has its own
``__init__``.
"""

from __future__ import annotations

from operator import attrgetter


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


def _bind(fields, defaults, args, kwargs):
    """The field values of a call with keywords or a wrong number of
    positional arguments; TypeError where a dataclass raises it."""
    if len(args) > len(fields) or not set(kwargs) <= set(fields[len(args):]):
        raise TypeError(f"__init__() got bad arguments {args} {kwargs}")
    values = {**dict(zip(fields[len(fields) - len(defaults):], defaults)),
              **dict(zip(fields, args)), **kwargs}
    missing = [name for name in fields if name not in values]
    if missing:
        raise TypeError(f"__init__() missing required arguments {missing}")
    return [values[name] for name in fields]


def record(cls):
    """Make ``cls`` a frozen value class (see the module docstring)."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    # a field without a default after one with a default is a SyntaxError
    defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    count, required = len(fields), len(fields) - len(defaults)
    post_init = hasattr(cls, "__post_init__")
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= count:
            args = _bind(fields, defaults, args, kwargs)
        elif len(args) < count:
            args += defaults[len(args) - required:]
        for name, value in zip(fields, args):
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    if count > 1:
        key = attrgetter(*fields)
    else:  # attrgetter of one name gives the value, of none is an error
        key = lambda self: tuple(getattr(self, name) for name in fields)  # noqa: E731

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for method in (__init__, __eq__, __hash__):
        methods[method.__name__] = method
        method.__module__ = cls.__module__
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__record_fields__ = fields
    return cls
