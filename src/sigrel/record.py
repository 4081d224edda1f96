"""Frozen value records without :mod:`dataclasses`, whose import and generated
code would cost every command line call more than its arithmetic."""

from __future__ import annotations


class Record:
    """Immutable record whose fields are the annotations of its class bodies, bases first.

    Fields are the constructor's parameters, in order, positional or keyword; a
    class attribute of the same name is the default. Each record's own
    ``__post_init__`` runs last and may replace fields and set derived views in
    one ``_set`` call; no other code can set or delete an attribute, while
    ``functools.cached_property`` still caches in the instance dict. Equality
    and hashing compare the class and every field; derived views take no part.
    """

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        bodies = [vars(c).get("__annotations__", {}) for c in reversed(cls.__mro__)]
        cls._fields = tuple(dict.fromkeys(f for body in bodies for f in body))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if f in dir(cls)}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, name = self._fields, type(self).__name__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not kwargs.keys() <= set(fields) - given.keys():
            raise TypeError(
                f"{name}() takes {fields}; got {len(args)} positional, keywords {sorted(kwargs)}"
            )
        values = {**self._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments {missing}")
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def _set(self, **attributes: object) -> None:
        """Store replaced fields and derived views: the one write, for ``__post_init__``."""
        self.__dict__.update(attributes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")

    def _key(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"
