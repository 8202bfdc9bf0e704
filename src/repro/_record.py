"""``@record``: what ``@dataclass`` makes of a class of annotated fields,
for the options this package uses, built from closures where a
dataclass compiles source with ``exec`` on every start-up (DESIGN.md
§7).  Methods written in the class body are kept, so types created in
bulk write a faster ``__init__`` than the generic one here."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform
else:
    dataclass_transform = lambda **_: lambda decorator: decorator

_MISSING = object()


class Field:
    """A record field: its name, default and ``dataclasses.field`` options;
    an ``init=False`` field is left for ``__post_init__`` to set."""

    def __init__(self, default=_MISSING, *, default_factory=_MISSING, init=True, repr=True,
                 compare=True):
        self.name, self.default, self.default_factory = "", default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def field(**options):
    return Field(**options)


@dataclass_transform(field_specifiers=(field,))
def record(cls=None, /, *, frozen=False, slots=False):
    """``@record`` or ``@record(frozen=True, slots=True)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    body, qualname = dict(cls.__dict__), cls.__qualname__
    found = {f.name: f for f in getattr(cls, "__record_fields__", ())}
    for name, annotation in body.get("__annotations__", {}).items():
        if not str(annotation).startswith(("ClassVar", "typing.ClassVar")):
            f = body.get(name, _MISSING)
            if not isinstance(f, Field):
                f = Field(f)
            elif not slots:
                delattr(cls, name)
            f.name, found[name] = name, f
    if slots:
        inherited = {s for base in cls.__mro__[1:] for s in base.__dict__.get("__slots__", ())}
        body = {k: v for k, v in body.items()
                if k not in found and k not in ("__dict__", "__weakref__")}
        body["__slots__"] = tuple(name for name in found if name not in inherited)
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        cls.__qualname__ = qualname
    init = [f for f in found.values() if f.init]
    names, shown = tuple(f.name for f in init), [f.name for f in found.values() if f.repr]
    compared = [f.name for f in found.values() if f.compare]
    key = lambda obj: tuple([getattr(obj, name) for name in compared])  # identity, then ==
    setter, post_init = object.__setattr__, hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):  # bind the rest by name or default
            args = list(args)
            for f in init[len(args):]:
                value = kwargs.pop(f.name, f.default)
                if value is _MISSING and f.default_factory is _MISSING:
                    raise TypeError(f"{qualname}() missing argument {f.name!r}")
                args.append(f.default_factory() if value is _MISSING else value)
            if kwargs or len(args) > len(names):
                raise TypeError(f"{qualname}() takes {names}; got extra {sorted(kwargs)}")
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        items = ", ".join([f"{name}={getattr(self, name)!r}" for name in shown])
        return f"{self.__class__.__qualname__}({items})"

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    methods = dict(__init__=__init__, __repr__=__repr__, __eq__=__eq__, __match_args__=names)
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    if frozen and slots:  # pickle and copy set slots past the frozen __setattr__
        methods.update(__getstate__=_getstate, __setstate__=_setstate)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    cls.__record_fields__ = tuple(found.values())
    return cls


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a frozen record (and of its subclasses)."""
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _getstate(self):
    return [getattr(self, f.name) for f in self.__record_fields__]


def _setstate(self, state):
    for f, value in zip(self.__record_fields__, state):
        object.__setattr__(self, f.name, value)


def fields(record_or_class):
    """The :class:`Field` objects of a record, in ``__init__`` order."""
    return record_or_class.__record_fields__


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with ``changes``."""
    for f in obj.__record_fields__:
        if f.init and f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)
