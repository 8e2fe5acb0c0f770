"""A slotted, immutable base class for the package's records, in place of dataclasses.

A record lists its fields in ``__slots__`` and sets them once, by
``_set_fields``, in its own ``__init__``.  Its repr is ``Name(field=value, ...)``
over every field, ``==`` compares the first ``_compared`` fields of two
instances of the same class (None: every field), any other operand gives
NotImplemented, and it hashes by its compared fields.
"""


class Frozen:
    __slots__ = ()
    _compared = None

    def _set_fields(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self, count):
        return tuple([getattr(self, name) for name in self.__slots__[:count]])

    def __repr__(self):
        fields = ', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self._compared) == other._fields(self._compared)

    def __hash__(self):
        return hash(self._fields(self._compared))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # so unpickling and copying go through __init__
        return type(self), self._fields(None)
