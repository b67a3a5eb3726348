"""The base of qpb's immutable value classes.

A record lists its fields in `__slots__` and writes its own `__init__`,
which validates the arguments and stores them once through `_set`. After
that, assigning or deleting a field raises AttributeError. Records compare
equal when they are of one class and their fields are equal, array fields
by `np.array_equal`, and hash their fields that are not arrays, so a record
whose other fields hash can key a cache. A slot whose name starts with an
underscore holds a cache, not a field. A record class derives from Record
directly or through a base without slots of its own.

The standard library's frozen generated classes would cost more: they
exec-compile their methods afresh in every process, which took about 70% of
qpb's own import time (README, "Where a `qpb verify all` process spends its
CPU").
"""

from __future__ import annotations

import numpy as np


class Record:
    __slots__ = ()

    def _set(self, **fields) -> None:
        """Store fields past the immutability: a constructor's once, or a
        cache slot's on first use."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _names(self) -> list[str]:
        return [name for name in type(self).__slots__ if name[0] != "_"]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(self._fields(), other._fields()))

    def __hash__(self):
        return hash(tuple(f for f in self._fields() if not isinstance(f, np.ndarray)))

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__, whose parameters
        # are its fields in slot order, so the copy is validated again
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names())
        return f"{type(self).__name__}({fields})"
