"""Immutable value records: each one is a tuple of its fields.

A class body names its fields by annotation, in order, and gives trailing
fields a default by class attribute, as a frozen dataclass does.  ``Record``
takes the constructor and the field getters that ``collections.namedtuple``
generates for those fields, compiled once per class.  A record equals only a
record of its own class with equal fields, hashes as the tuple of its fields
and refuses attribute assignment and deletion.  A class that defines
``__post_init__`` has it looked up and run after each construction.  A
field that the class body makes a ``property`` or ``cached_property``
keeps it as its getter, and has no default.
"""

from collections import namedtuple
from functools import cached_property


def _run_post_init(self, *args, **kwargs):
    self.__post_init__()


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        getters = {f for f in fields
                   if isinstance(own.get(f), (property, cached_property))}
        defaults = [own[f] for f in fields if f in own and f not in getters]
        if any(f in own and f not in getters
               for f in fields[:len(fields) - len(defaults)]):
            raise TypeError("%s: a field without a default follows one with"
                            % cls.__name__)
        proto = namedtuple(cls.__name__, fields, defaults=defaults)
        cls._fields = fields
        cls.__new__ = vars(proto)["__new__"]
        for name in set(fields) - getters:
            setattr(cls, name, vars(proto)[name])
        if hasattr(cls, "__post_init__"):
            cls.__init__ = _run_post_init

    # False, not NotImplemented, for another type: a plain tuple would then
    # try its own == and find (4,) equal to Rational(4)
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self)))

    def __getnewargs__(self):
        # the fields as separate arguments, for copy and pickle
        return tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r of an immutable %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r of an immutable %s"
                             % (name, type(self).__name__))
