"""The base of svq's immutable value types, built without generating code."""

_set = object.__setattr__


class Value:
    """A frozen record. Its fields are the class annotations, base class first:
    positional, compared, hashed and shown by repr; a class attribute named
    like a field is its default. Names in _keywords ("line" and "col") are
    keyword-only, default to their class attributes, stay out of equality and
    hashing and come first in repr. Value.__init__ is the one constructor of
    every type that does not define its own; any other field count or keyword
    raises a TypeError that names the class."""

    _fields: tuple[str, ...] = ()
    _keywords: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._keywords)

    def __init__(self, *values, **keywords):
        # Through object.__setattr__, never __dict__: a materialized dict slows every read.
        fields = self._fields
        if len(values) != len(fields):  # the defaults of the fields left out
            rest = fields[len(values):]
            if not rest or not all(hasattr(type(self), name) for name in rest):
                raise TypeError(f"{type(self).__name__}() takes {len(fields)} field values, got {len(values)}")
            values += tuple(getattr(type(self), name) for name in rest)
        for name, value in zip(fields, values):
            _set(self, name, value)
        for name in keywords:
            if name not in self._keywords:
                raise TypeError(f"{type(self).__name__}() got an unexpected keyword argument {name!r}")
            _set(self, name, keywords[name])

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

