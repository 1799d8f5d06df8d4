"""Base class of the package's small immutable value classes.

A subclass names its fields in ``__slots__`` and stores each one once, in its
``__init__``, with :func:`_set`.  Its instances then compare and hash as the
tuple of their fields, print like a dataclass, pickle and copy through the
constructor, and raise AttributeError on assignment.  Plain classes keep
``dataclasses`` (and the ``inspect`` it loads) off the import path.
"""

from operator import attrgetter

_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = property(attrgetter(*cls.__slots__))  # the fields, as a tuple

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values
