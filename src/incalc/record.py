"""The base of the package's value classes.

Each class names its fields in `__slots__`, in the order its constructor
takes them.  Two values are equal when they are of the same class and
their fields are equal, and a value's repr is its class name with each
field as `name=repr(value)`.  A `Frozen` value sets its fields once: its
constructor checks them and hands them, in `__slots__` order, to
`Frozen.__init__`, which stores them through `object.__setattr__`.  It
hashes by its fields and refuses assignment and deletion with
`AttributeError`.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Frozen(Record):
    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
