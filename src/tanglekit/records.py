"""The base of the package's frozen records.

ExtRational, TwistVector, RationalTangle, TwistWord, RatFunc, BracketVec2
and CounterexampleReport are plain classes, not dataclasses: a dataclass
generates and compiles its methods when its module is imported, which a
command line of well under a millisecond pays at every start.  Each
record writes its own __init__ (setting its fields once through
object.__setattr__), and its own __eq__ and __hash__ over its fields,
equal only to a record of its own class.  A record whose fields are
objects compares them as one tuple: like the dataclass, that takes an
identical field as equal without calling its __eq__.  Record gives the
records the rest, which no hot path calls: assignment and deletion
refused with AttributeError, the dataclass repr text, and pickling and
copying through __init__.
"""

__all__ = ["Record"]


class Record:
    """Frozen record base; a subclass lists its fields in _fields, in
    the order of its __init__, and stores them in __slots__."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
