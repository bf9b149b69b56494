"""Record: the frozen base class of rydgate's parameter and result types.

A subclass lists its fields as class annotations, with optional defaults,
as a frozen dataclass would. Record builds each subclass's __init__ from
them with one exec and shares the rest: __repr__ ("Name(field=value, ...)"),
__eq__ and __hash__ over the field tuple, and __setattr__/__delattr__ that
refuse every assignment, as dataclass(frozen=True) generates them. The
__init__ calls __post_init__ when the class defines one. Records are not
dataclasses: vars(record) maps their field names to values, in order.

dataclass(frozen=True) compiles six methods per class with one exec each;
on rydgate's records that was most of the package's own import time.
"""


class Record:
    _fields = ()  # field names in declaration order, set per subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__annotations__)  # the class's own, on 3.10+
        namespace = {f"_dflt_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
        params = "".join(f", {name}=_dflt_{name}" if f"_dflt_{name}" in namespace else f", {name}"
                         for name in names)
        # object.__setattr__, not writes to self.__dict__: reading __dict__ makes
        # CPython 3.11 keep the instance's attributes in a dict instead of its
        # inline values, and every later attribute read is about twice as slow
        namespace["_setattr"] = object.__setattr__
        lines = [f"def __init__(self{params}):"]
        lines += [f" _setattr(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
