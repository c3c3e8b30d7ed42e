"""Plain value classes: repr, equality and hashing over a per-class tuple of fields.

Each subclass lists its fields in `_fields` and writes its own `__init__`, which sets
them with `_set`.  `__repr__` and `__eq__` behave as a dataclass's would over those
fields, in that order; a `FrozenValue` also hashes them and refuses any later
assignment or deletion.  `Projector`, `AlternativeSet` and `DecoherenceReport` keep
their validation in `__post_init__`, which `__init__` calls through the instance, so
that a tracer can rebind it on the class (perfbench/tracing.py does).
"""


class Value:
    """Mutable value: repr and equality over `_fields`; unhashable."""

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        """Set attributes at construction, past a frozen `__setattr__`."""
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


class FrozenValue(Value):
    """Immutable after construction: assigning or deleting an attribute raises AttributeError."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
