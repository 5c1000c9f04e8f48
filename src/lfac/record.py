"""Value records: the small immutable classes of the package, built without
generated code.

A subclass of Record declares its fields as class annotations, in order,
and gives the trailing ones defaults by plain class assignment, as a frozen
dataclass would.  From that list alone Record supplies what the dataclass
decorator would generate:

* an __init__ taking the fields by position or by keyword, which then calls
  __post_init__ if the class has one;
* a repr of the form Name(field=value, ...);
* equality within one class on the tuple of field values, and the hash of
  that tuple;
* refusal of assignment and deletion (AttributeError);
* replace(**changes), a new record built through __init__;
* substitute(values), the record with symbol values put into every field
  that substitutes, also built through __init__.

The methods are closures over the field list, made once per class, so
nothing is compiled or exec'd and a cold start never loads the dataclasses
module.  A subclass may define its own __init__, which then stands.
``class R(Record, frozen=False)`` may be assigned to and is unhashable.
Fields are those of the class itself, not of a record it derives from.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

# sets a field past a frozen __setattr__, as a frozen dataclass's __init__ does
_set = object.__setattr__


def _refuse_set(record, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _refuse_delete(record, name):
    raise AttributeError("cannot delete field %r" % name)


def _bind(name: str, fields: tuple, defaults: dict, args: tuple,
          kwargs: dict) -> list:
    """The arguments of a call of record class `name` as one value per
    field, in order."""
    if len(args) > len(fields):
        raise TypeError("%s() takes %d arguments, %d given"
                        % (name, len(fields), len(args)))
    out = list(args)
    for f in fields[len(args):]:
        if f in kwargs:
            out.append(kwargs.pop(f))
        elif f in defaults:
            out.append(defaults[f])
        else:
            raise TypeError("%s() missing argument %r" % (name, f))
    if kwargs:
        raise TypeError("%s() got an unexpected or repeated argument %r"
                        % (name, next(iter(kwargs))))
    return out


def _initializer(name: str, fields: tuple, defaults: dict, post_init: bool):
    n = len(fields)
    tail = tuple(defaults.values())  # the defaults of the trailing fields

    def __init__(self, *args, **kwargs):
        if len(args) != n or kwargs:
            missing = n - len(args)
            if not kwargs and 0 < missing <= len(tail):
                args += tail[-missing:]
            else:
                args = _bind(name, fields, defaults, args, kwargs)
        i = 0
        for value in args:  # faster than a loop over zip(fields, args)
            _set(self, fields[i], value)
            i += 1
        if post_init:
            self.__post_init__()
    return __init__


def _equality(values):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented
    return __eq__


def _hashing(values):
    def __hash__(self):
        return hash(values(self))
    return __hash__


class Record:
    """Base of a value record; see the module docstring."""

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        fields = cls._fields = tuple(own.get("__annotations__", ()))
        defaults = {f: own[f] for f in fields if f in own}
        # the tuple of field values, a 1-tuple included
        values = attrgetter(*fields) if len(fields) > 1 \
            else (lambda record, get=attrgetter(*fields): (get(record),))
        cls._values = staticmethod(values)
        if "__init__" not in own:
            # like a dataclass, call __post_init__ only if the class has one
            cls.__init__ = _initializer(cls.__name__, fields, defaults,
                                        hasattr(cls, "__post_init__"))
        cls.__eq__ = _equality(values)
        if not frozen:
            cls.__hash__ = None
            return
        cls.__hash__ = _hashing(values)
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_delete

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values(self))))

    def replace(self, **changes):
        """A new record of the same class with the given fields changed; it
        is built through __init__, so __post_init__ checks it."""
        args = [changes.pop(f) if f in changes else v
                for f, v in zip(self._fields, self._values(self))]
        if changes:
            raise TypeError("%s has no field %r"
                            % (type(self).__name__, next(iter(changes))))
        return type(self)(*args)

    def substitute(self, values: dict):
        """The record with the symbol values substituted, built through
        __init__ so __post_init__ checks it.  A field with a substitute
        method is substituted, a tuple field item by item; any other field
        (a str, an int, a bool, None, a callable) is kept as it is."""
        return type(self)(*[_substitute(v, values)
                            for v in self._values(self)])


def _substitute(value, values: dict):
    if isinstance(value, tuple):
        return tuple([_substitute(v, values) for v in value])
    substitute = getattr(value, "substitute", None)
    return value if substitute is None else substitute(values)
