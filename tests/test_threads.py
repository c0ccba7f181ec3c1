"""Shared tables under threads: equal keys give one object.

Atom and layout equality is object identity, so a second object for an
equal key would give wrong results silently.  Each table test below
releases threads at once through a barrier onto keys no one has asked for,
with the interpreter switching threads as often as it can, and asserts one
object per key.  The RK4 test shares one cached generated loop between
threads; the last runs the paper's corpus in threads in a fresh process.
"""

import itertools
import subprocess
import sys
import threading
from contextlib import contextmanager

from jetvar import (
    Expr, Jet, LogAtom, Param, derive_ode, integrate_rk4, jacobi, monitor, sigma)
from jetvar.hierarchy import _SCHIPPERS, schippers
from jetvar.numeric import _rk4_loop
from jetvar.poly import _layout

from conftest import child_env

THREADS = 8
KEYS = 20
TRIALS = 100

_fresh = itertools.count(10**6)  # jet orders and names no other test uses


@contextmanager
def _fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _at_once(work, n=THREADS):
    """[work(0), ..., work(n - 1)], each run in its own thread, the threads
    released together by a barrier."""
    barrier = threading.Barrier(n, timeout=60)
    results = [None] * n
    errors = []

    def run(i):
        barrier.wait()
        try:
            results[i] = work(i)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    return results


def _duplicates(make, fresh_keys):
    """Over TRIALS trials, how many extra objects make gave for equal keys
    when THREADS threads asked for KEYS fresh keys at once."""
    extra = 0
    with _fast_switching():
        for _ in range(TRIALS):
            keys = fresh_keys()
            got = _at_once(lambda i: [make(k) for k in keys])  # keeps them alive
            extra += sum(len({id(r[j]) for r in got}) - 1 for j in range(KEYS))
    return extra


def test_jet_table_gives_one_atom_per_order_under_threads():
    assert _duplicates(Jet, lambda: [next(_fresh) for _ in range(KEYS)]) == 0


def test_param_table_gives_one_atom_per_name_under_threads():
    assert _duplicates(Param, lambda: [f"p{next(_fresh)}" for _ in range(KEYS)]) == 0


def test_log_table_gives_one_atom_per_argument_under_threads():
    q = Expr.atom(Jet(0))
    assert _duplicates(LogAtom, lambda: [q + next(_fresh) for _ in range(KEYS)]) == 0


def test_layout_table_gives_one_layout_per_key_under_threads():
    def fresh_keys():
        return [(Param(f"p{next(_fresh)}"),) for _ in range(KEYS)]

    assert _duplicates(lambda atoms: _layout(atoms, 8), fresh_keys) == 0


def test_schippers_table_grows_in_order_under_threads():
    saved = list(_SCHIPPERS)
    ref = [schippers(n) for n in range(3, 11)]
    orders = (10, 4, 8, 3, 9, 5, 7, 6)
    try:
        with _fast_switching():
            for _ in range(3):
                _SCHIPPERS.clear()
                got = _at_once(lambda i: schippers(orders[i]))
                assert got == [ref[n - 3] for n in orders]
                assert _SCHIPPERS == ref
    finally:
        _SCHIPPERS[:] = saved


def test_rk4_and_monitor_give_the_serial_floats_under_threads():
    system, J = derive_ode(sigma(5)), jacobi(sigma(5))

    def run(i):
        traj = integrate_rk4(system, (0.0, 1.0, 0.2, -0.1, 0.05, 0.0),
                             0.0, 0.05, 1e-4)
        return repr((traj, monitor(traj, J)))

    serial = run(0)
    with _fast_switching():
        for _ in range(3):
            _rk4_loop.cache_clear()  # so that the threads race to make it
            assert _at_once(run) == [serial] * THREADS


# Each of n threads builds the corpus and computes its EL and Jacobi, each
# thread starting at a different entry, on tables as empty as a fresh import
# leaves them; the blocks are printed in thread order, each in corpus order.
_CORPUS_RUN = """
import sys, threading
from jetvar import euler_lagrange, jacobi, render, schippers, sigma

corpus = [(sigma, n) for n in range(3, 7)] + [(schippers, n) for n in range(3, 9)]
n = int(sys.argv[1])
barrier = threading.Barrier(n)
blocks = [None] * n

def run(i):
    barrier.wait()
    k = i % len(corpus)
    texts = {}
    for j in list(range(k, len(corpus))) + list(range(k)):
        family, order = corpus[j]
        L = family(order)
        texts[j] = render(euler_lagrange(L)), render(jacobi(L))
    blocks[i] = [texts[j] for j in range(len(corpus))]

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
for th in threads:
    th.start()
for th in threads:
    th.join()
for block in blocks:
    for el, jac in block:
        print(el)
        print(jac)
"""


def _corpus_run(threads: int) -> str:
    proc = subprocess.run([sys.executable, "-c", _CORPUS_RUN, str(threads)],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_corpus_in_threads_prints_what_a_serial_run_prints():
    serial = _corpus_run(1)
    assert serial.splitlines()[2] == "0"  # E(sigma(4)) = 0: sigma(4) is null
    for _ in range(3):  # a race shows only in some interleavings
        assert _corpus_run(THREADS) == serial * THREADS
