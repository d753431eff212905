"""Immutable value records, the base of every retold value class.

A record class names its fields, in constructor order, in ``_fields`` and
keeps them in ``__slots__``. Its ``__init__`` takes explicit parameters and
stores each through the slot's descriptor, one of the setters
:func:`slot_setters` returns, because assignment on a record raises
``AttributeError``, as does deletion. The base gives what the standard
library's frozen data classes give: ``==`` between records of the same
class over their fields (a record never equals one of another class, even
with equal fields), a ``hash`` over the fields and the repr
``Name(field=value, ...)``, plus :meth:`Record.replace` for a copy with
some fields changed.

A record class that also declares a ``_memo`` slot can keep one derived
value with each record (see :meth:`Record.memo`). The slot is no field, so
``==``, ``hash``, ``repr`` and pickle ignore it, and a copy made by pickle
or ``replace`` starts without it.

The package does not build on the standard library's data classes:
importing their module pulls in ``inspect`` and ``ast``, and creating each
such class costs about a millisecond at import, against a few microseconds
for a slotted class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the field values as one object, for == and hash
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def memo(self, key, make):
        """The value ``make()`` gives, kept with this record and returned
        again while calls pass a key equal to ``key``. The record holds one
        value: a call with another key makes a new one and drops the old.
        Only a class that declares a ``_memo`` slot has one."""
        held = getattr(self, "_memo", None)
        if held is None or held[0] != key:
            held = (key, make())
            object.__setattr__(self, "_memo", held)
        return held[1]

    def replace(self, **changes):
        """A new record of this class with ``changes`` (field name to
        value) applied; an unknown name raises ``TypeError``."""
        for name in self._fields:
            if name not in changes:
                changes[name] = getattr(self, name)
        return self.__class__(**changes)


def slot_setters(cls: type[Record]) -> tuple:
    """The ``__set__`` of each of ``cls``'s field slots, in field order,
    for its ``__init__`` to store the field values with."""
    return tuple(getattr(cls, name).__set__ for name in cls._fields)
