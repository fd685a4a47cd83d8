"""Record classes without generated code: ``@record`` takes the fields from
the class's own annotations and their defaults from its class attributes,
and installs shared ``__init__``, ``__eq__`` and ``__repr__`` functions
(``frozen=True``: also read-only attributes and a field-tuple hash)."""

import inspect  # already loaded by numpy


def _init(self, *args, **kwargs):
    cls = type(self)
    fields, given = cls._fields, dict(zip(cls._fields, args))
    if len(args) > len(fields) or any(f not in fields or f in given for f in kwargs):
        raise TypeError(f"{cls.__qualname__}() takes the arguments {fields}, got "
                        f"{len(args)} positional and {sorted(kwargs)} by keyword")
    given.update(kwargs)
    for f in fields:
        if f not in given and f not in cls._defaults:
            raise TypeError(f"{cls.__qualname__}() missing argument {f!r}")
        object.__setattr__(self, f, given[f] if f in given else cls._defaults[f])
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _values(self) -> tuple:
    return tuple(getattr(self, f) for f in self._fields)


def _eq(self, other):
    same = other.__class__ is self.__class__
    return _values(self) == _values(other) if same else NotImplemented


def _repr(self) -> str:
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _hash(self) -> int:
    return hash(_values(self))


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__qualname__} is read-only ({name!r})")


def record(cls=None, *, frozen: bool = False):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    P, hints = inspect.Parameter, cls.__annotations__
    cls._fields = tuple(hints)
    cls._defaults = {f: vars(cls)[f] for f in hints if f in vars(cls)}
    cls.__signature__ = inspect.Signature(  # what inspect and help() show
        [P(f, P.POSITIONAL_OR_KEYWORD, annotation=hints[f],
           default=cls._defaults.get(f, P.empty)) for f in hints], return_annotation=None)
    cls.__init__, cls.__eq__, cls.__repr__ = _init, _eq, _repr
    cls.__hash__ = _hash if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _read_only
    return cls
