"""Immutable value records, built without generating code.

`frozen_record` reads the fields a class body annotates, in order, and the
defaults it assigns to them, and gives the class what
`dataclasses.dataclass(frozen=True)` would: a positional-or-keyword
constructor that then calls `__post_init__` if the class has one, `__eq__`
and `__hash__` over the field tuple, a `Name(field=value, ...)` repr, and
an `AttributeError` on assigning or deleting any attribute.  The methods
are closures made once per class, so defining a record runs no `exec`.
Fields live in the instance `__dict__`: `__post_init__` normalises one with
`object.__setattr__`, and `functools.cached_property` caches there too.
"""

from __future__ import annotations


def frozen_record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, "
                            f"got {len(args)}")
        given, fields = dict(zip(names, args)), self.__dict__
        for name, value in kwargs.items():
            if name not in names or name in given:
                raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated "
                                f"argument {name!r}")
            given[name] = value
        for name in names:
            if name in given:
                fields[name] = given[name]
            elif name in defaults:
                fields[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if post_init is not None:
            post_init(self)

    def astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(astuple(self))

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{cls.__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__qualname__}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
