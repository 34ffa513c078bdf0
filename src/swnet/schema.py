"""Typed keys for reading JSON scenarios, with JSON-pointer errors.

A table maps each key of an object to ``(reader, default)``. A reader checks
one JSON value and returns it parsed; ``read_object`` walks a table, refuses
unknown and missing keys and fills in defaults. Every refusal is a
``SchemaError`` that names the JSON pointer of the bad value, down to the
element of a list.
"""

from __future__ import annotations

import operator
from typing import Callable

from .geometry import to_fraction


class SchemaError(ValueError):
    """Scenario file violates the schema; carries a JSON-pointer location."""

    def __init__(self, pointer: str, message: str) -> None:
        super().__init__(f"schema error at {pointer}: {message}")
        self.pointer = pointer


REQUIRED = object()  # the default of a key that must be given
_OPS = ((">=", operator.ge), (">", operator.gt), ("<=", operator.le))

# The readers are plain classes: a frozen dataclass costs about a millisecond
# to create at import, and importing swnet is part of every run's set-up.


class Num:
    """A finite number or a rational string such as "1/3", as a float, within
    the bounds ``ge``, ``gt`` and ``le``. ``integer`` wants a JSON integer
    (10.7 is refused, not truncated); ``exact`` keeps the value as given, so
    that geometry can tell exact rates from floats."""

    def __init__(self, ge=None, gt=None, le=None, integer: bool = False, exact: bool = False) -> None:
        self.bounds = [(op, test, b) for (op, test), b in zip(_OPS, (ge, gt, le)) if b is not None]
        self.integer, self.exact = integer, exact

    def read(self, v, at: str, n):
        x = v if type(v) is int else None  # true is no number here, and 10.7 no integer
        if not self.integer and type(v) in (int, float, str):
            try:
                x = to_fraction(v)
                float(x)  # refuses values beyond the float range, such as "1e400"
            except (ValueError, ZeroDivisionError, OverflowError):  # NaN, Infinity, "abc"
                x = None
        if x is None or not all(test(x, b) for _, test, b in self.bounds):
            what = ["an integer" if self.integer else "a finite number", " and ".join(f"{op} {b}" for op, _, b in self.bounds)]
            raise SchemaError(at, f"expected {' '.join(what).rstrip()}, got {v!r}")
        return v if self.integer or self.exact else float(x)


def Int(**bounds) -> Num:
    return Num(integer=True, **bounds)


class Is:
    """A value of one JSON type (bool, str), and one of ``options`` if given."""

    def __init__(self, type_: type, options: tuple = ()) -> None:
        self.type, self.options = type_, options

    def read(self, v, at: str, n):
        if not isinstance(v, self.type) or (self.options and v not in self.options):
            want = f"one of {', '.join(self.options)}" if self.options else f"a {self.type.__name__}"
            raise SchemaError(at, f"expected {want}, got {v!r}")
        return v


class ListOf:
    """A list of ``item`` values; ``length`` "n" means one per queue."""

    def __init__(self, item, length=None, nonempty: bool = False) -> None:
        self.item, self.length, self.nonempty = item, length, nonempty

    def read(self, v, at: str, n):
        want = n if self.length == "n" else self.length
        if not isinstance(v, list) or (want is not None and len(v) != want) or (self.nonempty and not v):
            what = f"a list of {want} values" if want is not None else "a nonempty list" if self.nonempty else "a list"
            raise SchemaError(at, f"expected {what}, got {v!r}")
        return [self.item.read(x, f"{at}/{i}", n) for i, x in enumerate(v)]


class Decreasing:
    """A list read by ``inner`` whose values strictly decrease."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def read(self, v, at: str, n):
        xs = self.inner.read(v, at, n)
        if any(b >= a for a, b in zip(xs, xs[1:])):
            raise SchemaError(at, f"expected strictly decreasing values, got {v!r}")
        return xs


class Edge:
    """A routing edge [from, to] between two queue indices, as a tuple."""

    def read(self, v, at: str, n):
        if not (isinstance(v, list) and len(v) == 2 and all(type(k) is int and 0 <= k < n for k in v)):
            raise SchemaError(at, f"expected a pair [from, to] of queue indices in 0..{n - 1}, got {v!r}")
        return tuple(v)


class Kind:
    """An object with the keys of ``keys``; reads to what ``build`` makes of
    their values (passed in table order). A ValueError of ``build`` (a cyclic
    routing, a transition row that is no distribution) becomes a SchemaError
    at the object."""

    def __init__(self, build: Callable, keys: dict) -> None:
        self.build, self.keys = build, keys

    def read(self, v, at: str, n, extra=()):
        values = read_object(v, at, self.keys, n, extra)
        try:
            return self.build(*values.values())
        except ValueError as exc:
            raise SchemaError(at or "/", str(exc)) from exc


class Tagged:
    """An object whose "kind" names an entry of ``table``; reads to what that
    entry builds."""

    def __init__(self, table: dict, what: str) -> None:
        self.table, self.what = table, what

    def read(self, v, at: str, n):
        return kind_of(v, at, self.table, self.what).read(v, at, n, extra=("kind",))


def read_object(obj, at: str, keys: dict, n=None, extra=()) -> dict:
    """The value of every key in ``keys`` ({name: (reader, default)}), absent
    ones at their default (a callable default is called with n). ``obj``, at
    JSON pointer ``at``, may hold no other key but ``extra``. ``n`` is the
    number of queues; a "queues" key, read before the rest, sets it."""
    if not isinstance(obj, dict):
        raise SchemaError(at or "/", f"expected an object, got {obj!r}")
    unknown = sorted(set(obj) - set(keys) - set(extra))
    if unknown:
        raise SchemaError(f"{at}/{unknown[0]}", "unknown key")
    values = {}
    for name, (reader, default) in keys.items():
        if name in obj:
            values[name] = reader.read(obj[name], f"{at}/{name}", n)
        elif default is REQUIRED:
            raise SchemaError(f"{at}/{name}", "missing required key")
        else:
            values[name] = default(n) if callable(default) else default
        if name == "queues":
            n = values[name]
    return values


def kind_of(obj, at: str, table: dict, what: str):
    """The entry of ``table`` that the object's "kind" names."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{at}/kind", "missing required key")
    name = obj["kind"]
    if not isinstance(name, str) or name not in table:
        raise SchemaError(f"{at}/kind", f"unknown {what} kind {name!r}; expected one of {', '.join(table)}")
    return table[name]
