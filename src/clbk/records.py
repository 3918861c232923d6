"""Plain slotted records: equality, hashing, printing and copying by field, written once here
instead of generated for each class when the package is imported.

A record's fields are its slots named in ``__match_args__``, its positional fields, in order.
Any other slot holds a value derived from them or a cache, and takes no part in equality,
hashing, printing or copying. Each record class gets one getter of its fields' values, built
when the class is made. A record class writes its own ``__init__``: an immutable one sets its
slots with ``set_field``, since its own ``__setattr__`` refuses."""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # sets a slot of an immutable record, past its __setattr__


def _field_getter(names: tuple[str, ...]):
    """A function from a record to the tuple of its fields named ``names``, in order."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """A mutable record: equal to a record of the same class with equal fields, printed as
    ``Name(field=value, ...)``, and unhashable, since its fields may change."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls):
        cls._fields = staticmethod(_field_getter(cls.__match_args__))  # the tuple of a record's fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields(self))])
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable record: as ``Record``, but hashed as the tuple of its fields, copied and
    pickled by calling its class on its fields, and assigning or deleting an attribute raises
    ``AttributeError``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
