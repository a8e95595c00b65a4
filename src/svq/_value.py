"""The base of svq's immutable value types, built without generating code."""

_set = object.__setattr__


class Value:
    """A frozen record. Its fields are the class annotations, base class first:
    positional, compared, hashed and shown by repr; a class attribute named
    like a field is its default. Names in _keywords ("line" and "col") are
    keyword-only, stay out of equality and hashing and come first in repr."""

    _fields: tuple[str, ...] = ()
    _keywords: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._keywords)
        if "__init__" not in cls.__dict__:
            fixed = (_LOCATED if cls._keywords else _FIXED).get(len(cls._fields))
            cls.__init__ = not any(hasattr(cls, name) for name in cls._fields) and fixed or Value.__init__

    def __init__(self, *values, line=0, col=0):
        fields = self._fields
        if len(values) != len(fields):  # the defaults of the fields left out
            rest = fields[len(values):]
            if not rest or not all(hasattr(type(self), name) for name in rest):
                raise TypeError(f"{type(self).__name__}() takes {len(fields)} field values, got {len(values)}")
            values += tuple(getattr(type(self), name) for name in rest)
        for name, value in zip(fields, values):
            _set(self, name, value)
        if self._keywords:
            _set(self, "line", line)
            _set(self, "col", col)

    def _replace(self, **changes):
        """A copy with the named fields changed, as dataclasses.replace makes one."""
        values = {name: getattr(self, name) for name in self._keywords + self._fields}
        values.update(changes)
        return type(self)(*[values.pop(name) for name in self._fields], **values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(map(self.__getattribute__, self._fields)) == tuple(map(other.__getattribute__, other._fields))

    def __hash__(self):
        return hash(tuple(map(self.__getattribute__, self._fields)))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._keywords + self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# Constructors with fixed parameters, by field count, for the types without
# defaults: Value.__init__'s loop binds up to twice as slowly. Fields go in
# through object.__setattr__, never through __dict__: an instance whose dict
# was materialized reads its attributes several times more slowly.


def _init1(self, a, /):
    _set(self, self._fields[0], a)


def _init2(self, a, b, /):
    x, y = self._fields
    _set(self, x, a)
    _set(self, y, b)


def _init4(self, a, b, c, d, /):
    w, x, y, z = self._fields
    _set(self, w, a)
    _set(self, x, b)
    _set(self, y, c)
    _set(self, z, d)


def _located1(self, a, /, *, line=0, col=0):
    _set(self, self._fields[0], a)
    _set(self, "line", line)
    _set(self, "col", col)


def _located2(self, a, b, /, *, line=0, col=0):
    x, y = self._fields
    _set(self, x, a)
    _set(self, y, b)
    _set(self, "line", line)
    _set(self, "col", col)


_FIXED = {1: _init1, 2: _init2, 4: _init4}
_LOCATED = {1: _located1, 2: _located2}
