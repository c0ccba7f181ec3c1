"""Atoms: the indeterminates expressions are built from.

Four kinds exist: the time variable t, jet variables q{k} (the k-th time
derivative of the dependent variable, treated as an independent coordinate),
named constant parameters, and logs of whole expressions.  Atoms carry a
fixed total order -- Time < Jet(0) < Jet(1) < ... < Param (by name) < Log
(by canonical form of the argument) -- which makes every downstream
canonical form deterministic.

Atoms are interned: while an atom is alive, constructing an equal one
returns that same object, and copy and pickle return it too.  So equality
and hashing are object identity, and a dict or set lookup of an atom runs
no Python code.  Hashes differ from process to process; order by sort_key.

Interning is publish-once, so it holds under threads.  A constructor looks
its key up in the kind's weak table; on a miss it builds the atom whole and
hands it to _publish, which enters it under a lock unless an equal key got
there first, and returns what the table then holds.  So no thread sees a
half-built atom, and equal keys give one object.  _publish is the one
writer of every intern table, poly's layouts included, and its lock is
never held while an object is built.
"""

from __future__ import annotations

import threading
import weakref

_PUBLISH_LOCK = threading.Lock()


def _publish(table, key, obj):
    """Enter the fully built obj in the intern table under key, unless an
    equal key is already there, and return the object the table holds."""
    with _PUBLISH_LOCK:
        return table.setdefault(key, obj)


class _Atom:
    """An interned, immutable atom; equal atoms are the same object."""

    __slots__ = ("_key", "__weakref__")

    def sort_key(self):
        return self._key

    def __setattr__(self, name, value):
        raise AttributeError("atoms are immutable")

    def __reduce__(self):
        # the constructor takes the kind's own slots and returns the live atom
        return type(self), tuple(getattr(self, s) for s in type(self).__slots__)

    @classmethod
    def _intern(cls, value, key):
        """The atom whose own slot holds value, built whole and then
        published in cls._live under value; called on a lookup's miss."""
        atom = object.__new__(cls)
        object.__setattr__(atom, cls.__slots__[0], value)
        object.__setattr__(atom, "_key", key)
        return _publish(cls._live, value, atom)


class TimeAtom(_Atom):
    """The independent variable t (a singleton: TimeAtom() returns TIME)."""

    __slots__ = ()

    def __new__(cls):
        return TIME

    def __repr__(self):
        return "TIME"


TIME = object.__new__(TimeAtom)
object.__setattr__(TIME, "_key", (0,))


class Jet(_Atom):
    """The jet variable of the given derivative order (Jet(0) is q itself)."""

    __slots__ = ("order",)
    _live = weakref.WeakValueDictionary()

    def __new__(cls, order: int):
        # a bool is an int equal to 0 or 1, and would find that atom
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"jet order must be a nonnegative integer, got {order!r}")
        atom = cls._live.get(order)
        return atom if atom is not None else cls._intern(order, (1, order))

    def __repr__(self):
        return f"Jet({self.order})"


class Param(_Atom):
    """A named constant parameter (time-independent)."""

    __slots__ = ("name",)
    _live = weakref.WeakValueDictionary()

    def __new__(cls, name: str):
        if not name or not name[0].isalpha():
            raise ValueError(f"parameter name must start with a letter, got {name!r}")
        atom = cls._live.get(name)
        return atom if atom is not None else cls._intern(name, (2, name))

    def __repr__(self):
        return f"Param({self.name!r})"


class LogAtom(_Atom):
    """log of a canonical expression, treated as an independent transcendental.

    Two log atoms are the same atom iff their arguments are structurally
    equal canonical expressions; no log identities are applied.
    """

    __slots__ = ("arg",)
    _live = weakref.WeakValueDictionary()

    def __new__(cls, arg):
        # arg must already be a canonical Expr; constructors in expr.py
        # enforce that it is not a bare constant.
        atom = cls._live.get(arg)
        return atom if atom is not None else cls._intern(arg, (3, arg.sort_key()))

    def __repr__(self):
        return f"LogAtom({self.arg!r})"


# Not a typing.Union of the four kinds: typing caches a Union with its
# classes, and through their intern tables it would keep every Expr that
# is a log argument, and the modules behind them, alive for good.
Atom = _Atom
