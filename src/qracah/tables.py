"""Process-lifetime tables of pure values and rows: the one table mechanism.

``tabled`` keeps a pure function's results in a module-level dict, one per
function, for the life of the process; ``table_sizes`` reports how many
entries each table holds.  A hit returns the very object the first call
computed, so a tabled value is bit-identical to, and of the same type as,
the undecorated function's (``fn.__wrapped__``).

A key is one flat tuple: the arguments, with each record argument (a
``NamedTuple``, or any other subclass of tuple) replaced by its fields,
then the type of every one of those values, then the names of any keyword
arguments.  A tuple argument
stays whole and brings the types of its entries along, so ``(1,)`` and
``(1.0,)`` key apart as ``1`` and ``1.0`` do.  The types keep apart
arguments that compare equal across backends -- ``1.0 == Fraction(1) ==
True`` -- so an exact base still rejects a float exponent whose
``Fraction`` twin is tabled.  A call that raises stores nothing and
raises again next time.

Values that run over an index are rows, ``_Row``: entries 0, 1, ...
computed in order on first request and kept.  A tabled function that
returns a row is keyed once per row, and its callers fetch the row once
per sum and read it by index, with no key built per entry.

Values that a parameter pack fixes at many index points, read in any
order, are a pack table, ``_Points``: the entry at a point is computed on
its first request and kept; a point that raises, or a complex one, stores
nothing.  A point is keyed with the types of its entries, and of a tuple
entry's entries, as ``tabled`` keys a tuple argument.  ``packed`` tables a
function of a pack and a point as one ``_Points`` per pack, so a check
keys its pack once and reads its points by index.  Each ``QBase``, one per
(p, mode), reads its powers and q-numbers from three ``_Points``.
"""

from __future__ import annotations

from functools import wraps
from threading import RLock

from .errors import OutOfRange

_TABLES: dict = {}
_MISSING = object()


class _Row:
    """Entries 0, 1, 2, ... of a sequence, entry m computed once by
    ``entry(*args, m)`` and kept: a request for entry m first computes every
    entry before it, in order.  Growth holds a lock, since two threads
    reading the same last entry would append it twice; one reentrant lock
    serves every row, as a row's entries may grow other rows.  An entry
    that raises is not stored and raises again on the next request, and so
    does every request past it.  A negative index raises OutOfRange: a
    row has no end to count back from."""

    __slots__ = ("entry", "args", "row")
    lock = RLock()

    def __init__(self, entry, *args):
        self.entry, self.args, self.row = entry, args, []

    def __getitem__(self, m: int):
        row = self.row
        if m >= len(row) or m < 0:
            if m < 0:
                raise OutOfRange(f"row index {m} is negative")
            with self.lock:
                while len(row) <= m:
                    row.append(self.entry(*self.args, len(row)))
        return row[m]


class _Points:
    """The entries ``entry(*args, point)`` of a pack's index points, each
    computed on its first request and kept; an entry that raises is not
    stored and raises again on the next request.  A request for one point
    computes that point only, so an error names the point asked for.  Two
    threads that miss one point at once both compute it, and both get the
    object stored first.  A complex point is never stored: complex(x, 0.0)
    == complex(x, -0.0), yet their entries can differ in the sign of a
    zero."""

    __slots__ = ("entry", "args", "values")

    def __init__(self, entry, *args):
        self.entry, self.args, self.values = entry, args, {}

    def __getitem__(self, point):
        key = (point, _point_types(point))
        value = self.values.get(key, _MISSING)
        if value is _MISSING:
            value = self.entry(*self.args, point)
            if type(point) is not complex:
                value = self.values.setdefault(key, value)
        return value


def _point_types(point):
    # the type of a point; of a tuple point, the type of each entry, or of
    # each entry's entries for a tuple entry
    if type(point) is not tuple:
        return type(point)
    return tuple([tuple(map(type, p)) if type(p) is tuple else type(p) for p in point])


def _key(args, kwargs):
    flat = []
    for value in ((*args, *kwargs.values()) if kwargs else args):
        if type(value) is tuple:
            flat += value, tuple(map(type, value))
        elif isinstance(value, tuple):
            # a record is its own tuple of fields
            flat += value
        else:
            flat.append(value)
    return (*flat, *map(type, flat), *kwargs)


def tabled(fn):
    """Table the results of the pure function ``fn`` for the process's life."""
    values = _TABLES[f"{fn.__module__}.{fn.__qualname__}"] = {}

    @wraps(fn)
    def lookup(*args, **kwargs):
        key = _key(args, kwargs)
        value = values.get(key, _MISSING)
        if value is _MISSING:
            value = values[key] = fn(*args, **kwargs)
        return value

    return lookup


def packed(entry):
    """Table ``entry(*pack, point)`` as one ``_Points`` per pack: the
    returned function of the pack is ``tabled`` and hands out the pack's
    table, to be read by point."""

    @tabled
    @wraps(entry)
    def points(*pack):
        return _Points(entry, *pack)

    return points


def table_sizes() -> dict:
    """Entry count of every table, by the tabled function's qualified name."""
    return {name: len(values) for name, values in _TABLES.items()}
