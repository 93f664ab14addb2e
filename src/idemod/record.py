"""Plain slotted records: the base of the library's value classes.

A record's annotated names are its fields, after its base's, and its
``__slots__``.  A value in the class body is that field's default; a class
given as one (``list``, ``dict``) makes a new value per record.  ``Record``
gives construction by position or keyword, equality by class and fields, a
hash of the fields and the repr ``Name(field=value, ...)``.  Records are
immutable by convention, like Scalar; only ``laws.SuiteReport`` and
``render.Scene`` are filled in after construction.
"""


class _RecordType(type):
    def __new__(mcs, name, bases, ns):
        own = tuple(ns.get("__annotations__", ()))
        ns["__slots__"] = own
        if own:  # a subclass that adds no field keeps its base's
            ns["_fields"] = bases[0]._fields + own
            ns["_defaults"] = {f: ns.pop(f) for f in own if f in ns}
        return super().__new__(mcs, name, bases, ns)


class Record(metaclass=_RecordType):
    _fields, _defaults = (), {}  # unannotated, so not fields; _RecordType sets them

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) != len(fields) or kwargs:  # keywords and defaults
            values = {f: d() if isinstance(d, type) else d for f, d in self._defaults.items()}
            values.update(zip(fields, args), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            args = [values[f] for f in fields]
        for f, value in zip(fields, args):
            setattr(self, f, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"
