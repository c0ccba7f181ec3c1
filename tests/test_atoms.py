"""Atoms are interned: equal atoms are one object, whose hash is its identity.

So nothing jetvar prints may depend on the iteration order of an atom set,
which changes from process to process; the subprocess tests below run the
CLI under several hash seeds and compare its output.
"""

import copy
import gc
import pickle
import subprocess
import sys
import weakref

import pytest

from jetvar import TIME, Expr, Jet, LogAtom, Param, TimeAtom
from jetvar.expr import jet, log

from conftest import child_env


def _log_atom(arg: Expr) -> LogAtom:
    (atom,) = log(arg).atoms()
    return atom


def test_equal_atoms_are_one_object():
    assert Jet(3) is Jet(3)
    assert Param("x") is Param("x")
    assert TimeAtom() is TIME
    # two equal arguments, built apart
    x, y = jet(1) + jet(0), jet(0) + jet(1)
    assert x is not y
    assert _log_atom(x) is _log_atom(y) is LogAtom(y)


def test_distinct_atoms_differ():
    assert Jet(2) != Param("q2")
    assert Jet(2) != Jet(3)
    assert Param("a1") != Param("a2")
    assert _log_atom(jet(0)) != _log_atom(jet(1))
    assert TIME != Jet(0)


def test_copy_and_pickle_return_the_interned_atom():
    lg = _log_atom(jet(1) + Expr.atom(TIME))
    for a in (TIME, Jet(0), Jet(7), Param("a1"), lg):
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        assert pickle.loads(pickle.dumps(a)) is a


def test_atoms_are_immutable():
    lg = _log_atom(jet(1))
    for a, name in ((TIME, "order"), (Jet(1), "order"), (Param("x"), "name"),
                    (lg, "arg"), (Jet(1), "_key")):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def test_repr_is_unchanged():
    assert repr(TIME) == "TIME"
    assert repr(Jet(2)) == "Jet(2)"
    assert repr(Param("a1")) == "Param('a1')"
    assert repr(_log_atom(jet(1))) == "LogAtom(Expr(q'))"


def test_constructors_validate_before_the_lookup():
    keep = Jet(1)  # a live atom that 1.0 would find by equal hash
    with pytest.raises(ValueError):
        Jet(1.0)
    with pytest.raises(ValueError):
        Jet(-1)
    with pytest.raises(ValueError):
        Param("1a")
    assert keep is Jet(1)


def test_interning_keeps_no_atom_alive():
    ref = weakref.ref(Param("only_here_once"))
    gc.collect()
    assert ref() is None


def _cli(*argv, seed):
    return subprocess.run([sys.executable, "-m", "jetvar", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=child_env(PYTHONHASHSEED=str(seed)))


def test_reserved_parameter_error_does_not_depend_on_hashes():
    # four reserved names in one expression; the least one is named
    for seed in range(1, 9):
        proc = _cli("sl2", "a*q' + b + c + d*q''", seed=seed)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "error: parameter name 'a' is reserved for the group action\n")


@pytest.mark.parametrize("argv", [
    ("el", "sigma(5)"),
    ("jacobi", "schippers(7)"),
    ("gauge", "sigma(4)"),
    ("sl2", "sigma(3)+log(q')"),
    ("simplify", "--format", "json",
     "a1*log(q'+b2) + b2/(log(q)+a1) - log(t*q'+b2)*c3/q''"),
    ("simplify", "a1*log(q'+b2) + b2/(log(q)+a1) - log(t*q'+b2)*c3/q''"),
], ids=["el", "jacobi", "gauge", "sl2", "simplify-json", "simplify"])
def test_output_does_not_depend_on_hashes(argv):
    one, two = (_cli(*argv, seed=seed) for seed in (1, 2))
    assert one.stderr == ""
    assert (one.returncode, one.stdout, one.stderr) == (
        two.returncode, two.stdout, two.stderr)
