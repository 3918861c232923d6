"""Plain slotted records: equality, hashing and printing by field, written once here instead of
generated for each class when the package is imported.

A record's fields are its slots named in ``__match_args__``, its positional fields, in order.
Any other slot holds a value derived from them or a cache, and takes no part in equality,
hashing or printing. A record class writes its own ``__init__``: an immutable one sets its
slots with ``set_field``, since its own ``__setattr__`` refuses. The formula kinds, which the
prover compares and hashes in its memo, write their own ``__eq__`` and ``__hash__`` too."""

from __future__ import annotations

set_field = object.__setattr__  # sets a slot of an immutable record, past its __setattr__


class Record:
    """A mutable record: equal to a record of the same class with equal fields, printed as
    ``Name(field=value, ...)``, and unhashable, since its fields may change."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable record: as ``Record``, but hashed as the tuple of its fields, and
    assigning or deleting an attribute raises ``AttributeError``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
