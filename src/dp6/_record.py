"""Records: the part of the standard `@dataclass` that dp6 uses, without `exec`.

A record class names its fields by annotations, in order, as a dataclass
does, and subclasses `Record` where a dataclass would be decorated:

    class ClassFact(Record, frozen=True):
        verdict: str
        witness: object = field(default=None, compare=False, repr=False)

The methods are closures over the field list and `operator.attrgetter`, made
once per class: `__init__` (positional or keyword arguments, `default`,
`default_factory` and `init=False`, then `__post_init__`), `__eq__` between
instances of the same class over the `compare` fields, `__repr__` as
`Qualname(a=..., b=...)` over the `repr` fields, and, for frozen records,
`__setattr__`/`__delattr__` that raise and `__hash__` equal to the
dataclass's `hash((f1, ..., fn))` over the `compare` fields.  Mutable
records are unhashable.  A method written in the class body wins.  Equal
hashes and reprs keep set orders and reports as they were under
`@dataclass`.  `memo` is dp6's one cache of values derived from a tower or
a surface; functions of a small finite domain use `functools.cache`.  `Key`
is the content key that such tables and the model graph look up over and
over: a tuple that computes its hash once.

Why not `@dataclass`: measured on a 2-core x86-64 VM with Python 3.11.7,
importing its module also loads `inspect`, `ast` and `dis` (6-8 ms), and
decorating dp6's 23 classes `exec`s generated source for 14-17 ms.  With
the module of `Fraction` (3 ms, no longer used) that was an eighth of the
set-up of a benchmark pass and two thirds of a cached `import dp6.cli`
(40-50 ms, about 15 ms without them).  Building the same classes here takes
under 1 ms; the price is an `__init__` about 2 microseconds slower per
record, on a few hundred records per CLI run.
"""

from operator import attrgetter

_MISSING = object()


class Field:
    """A field's options; `field(...)` in a class body makes one."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, default, default_factory, init, repr, compare):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True,
          compare=True):
    return Field(default, default_factory, init, repr, compare)


def replace(obj, **changes):
    """A copy of a record with some fields changed, built and checked by
    `__init__`; a costly check keeps its verdict in a `memo`."""
    for f in obj.__record_fields__:
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with init=False, "
                                 "it cannot be specified with replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def memo(table, key, build):
    """build() for key, computed on the first call and kept in `table`, the
    owner's dict.  A build that raises stores nothing."""
    try:
        return table[key]
    except KeyError:
        value = table[key] = build()
        return value


class Key(tuple):
    """A tuple that keeps its hash.

    A content key nests tower, radical and class data down to `MPQ` leaves,
    and a plain tuple rehashes every leaf on each dict lookup.  A `Key`
    computes `tuple.__hash__` on first use and keeps it, so its hash,
    equality and repr are those of the plain tuple: a dict keyed by one
    finds the other, and set orders stay as they were.  Pickle and copy
    build a new `Key` from the items and drop the kept hash, which a string
    leaf makes differ between interpreters.
    """

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = tuple.__hash__(self)
            return h

    def __reduce__(self):
        return Key, (tuple(self),)


def _getter(names):
    """A function from an instance to the tuple of its `names` attributes."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    if not names:
        return lambda self: ()
    return attrgetter(*names)


def _init(cls, fields, frozen):
    qualname = cls.__qualname__
    names = tuple(f.name for f in fields if f.init)
    given = [(f.name, f.default, f.default_factory) for f in fields if f.init]
    later = [(f.name, f.default, f.default_factory) for f in fields
             if not f.init and (f.default is not _MISSING
                                or f.default_factory is not _MISSING)]
    post_init = hasattr(cls, "__post_init__")
    # attributes are set one by one, never through `self.__dict__`: reading
    # that dict turns the instance's inline attribute values into a plain
    # dict, which makes every later attribute read several times slower
    setattr_ = object.__setattr__ if frozen else setattr

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}.__init__() takes {len(names) + 1} "
                            f"positional arguments but {len(args) + 1} were given")
        for name, value in zip(names, args):
            setattr_(self, name, value)
        for name, default, factory in given[len(args):]:
            value = kwargs.pop(name, default)
            if value is _MISSING:
                if factory is _MISSING:
                    raise TypeError(f"{qualname}.__init__() missing required "
                                    f"argument: {name!r}")
                value = factory()
            setattr_(self, name, value)
        for name in kwargs:
            how = ("got multiple values for argument" if name in names
                   else "got an unexpected keyword argument")
            raise TypeError(f"{qualname}.__init__() {how} {name!r}")
        for name, default, factory in later:
            setattr_(self, name, factory() if default is _MISSING else default)
        if post_init:
            self.__post_init__()

    return __init__


def _repr(fields):
    shown = [(f.name + "=", attrgetter(f.name)) for f in fields if f.repr]

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(label + repr(get(self)) for label, get in shown) + ")")

    return __repr__


def _eq(fields):
    values = _getter([f.name for f in fields if f.compare])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    return __eq__, values


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """Base of the record classes; see the module docstring."""

    __record_fields__ = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        body = cls.__dict__
        fields = {f.name: f for f in cls.__record_fields__}
        for name in body.get("__annotations__", {}):
            value = body.get(name, _MISSING)
            if isinstance(value, Field):
                f = value
                if f.default is _MISSING:
                    delattr(cls, name)
                else:
                    setattr(cls, name, f.default)
            else:
                f = Field(value, _MISSING, True, True, True)
            f.name = name
            fields[name] = f
        fields = tuple(fields.values())
        cls.__record_fields__ = fields

        # the hash rule of `@dataclass`: a body `__eq__` alone leaves
        # `__hash__ = None` in the body, which does not count as written
        class_hash = body.get("__hash__", _MISSING)
        explicit_hash = not (class_hash is _MISSING or (
            class_hash is None and "__eq__" in body))
        eq, values = _eq(fields)
        methods = {"__init__": _init(cls, fields, frozen), "__repr__": _repr(fields),
                   "__eq__": eq}
        if frozen:
            methods["__setattr__"] = _frozen_setattr
            methods["__delattr__"] = _frozen_delattr
        for name, method in methods.items():
            if name not in body:
                setattr(cls, name, method)
        if not explicit_hash:
            cls.__hash__ = (lambda self: hash(values(self))) if frozen else None
