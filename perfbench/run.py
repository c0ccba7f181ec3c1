"""Layered benchmark of jetvar: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-digests

The library is imported from src/ of the checkout this file sits in.  A run
sets up (fresh import, input generation, warm-up), then repeats whole
rounds of the workload's operations, single-threaded, until --seconds have
passed; it sets up again between rounds, SETUP_REPEATS times in all, and
reports the median set-up time as setup_s.  Every time is scaled to the
reference speed of the host by a fixed calibration timed between
operations (HostSpeed).  Each
operation runs under a wall-clock cap (OP_CAP_S); one that hits it, or
raises, is counted as failed, at the cap in the latencies.  Only the
operations in workloads.KNOWN_FAULTS may fail.  The first output of each
operation is checked by the independent oracle and against the recorded
digests; later rounds must repeat it exactly.

With --trace 1 the first rounds run again with spans around the calls into
each module (spans.py), and the per-layer metrics are printed in place of
the end-to-end ones.  The spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 9
OP_CAP_S = 1.0
CAL_REF_S = 2.4e-3   # time of one calibration on the reference host (README.md)
CAL_EVERY_S = 0.05   # least wall time between two calibrations
# a polynomial of 20 terms, exponent tuples to Fractions, which
# _calibration squares as the library multiplies polynomials
CAL_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
MODULES = ("atoms", "errors", "poly", "expr", "jets", "variational",
           "hierarchy", "sl2", "numeric", "parser", "render", "cli")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that outlives OP_CAP_S.

    A BaseException, so no handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _jetvar_modules() -> list:
    return [m for m in sys.modules if m == "jetvar" or m.startswith("jetvar.")]


def fresh_import() -> SimpleNamespace:
    """Import jetvar anew from src/ and return its modules by short name."""
    for name in _jetvar_modules():
        del sys.modules[name]
    pkg = importlib.import_module("jetvar")
    if Path(pkg.__file__).resolve().parent != SRC / "jetvar":
        raise SystemExit(f"jetvar imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"jetvar.{name}") for name in MODULES}
    mods["jetvar"] = pkg
    return SimpleNamespace(**mods)


def _calibration() -> float:
    """Seconds to square CAL_POLY: 400 Fraction products into a dict."""
    t0 = time.perf_counter()
    out = {}
    for (i, j), a in CAL_POLY.items():
        for (k, m), b in CAL_POLY.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + a * b
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host runs Python, against the reference host.

    The host runs a process at two speeds up to 1.8x apart, for seconds to
    minutes at a time, whatever the process does (README.md), so the share
    of a run spent at each speed moved the times of whole runs by more than
    a quarter.  A fixed piece of work like the library's own (_calibration)
    slows and speeds up with the library around it.  It is timed between
    operations, at most every CAL_EVERY_S, and the work done between two
    timings is scaled by their mean to the time it takes on the reference
    host at its usual speed."""

    def __init__(self):
        self.last = _calibration()
        self.at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.at >= CAL_EVERY_S

    def bracket(self) -> float:
        """Calibrate again; returns the factor that scales the work done
        since the previous calibration to the reference speed."""
        before = self.last
        self.last = _calibration()
        self.at = time.perf_counter()
        return 2 * CAL_REF_S / (before + self.last)


class Failed:
    """Outcome of an operation that hit the cap or raised."""

    def __init__(self, why: str):
        self.why = why


def run_op(op):
    """(output, seconds); the output is a Failed when the operation failed."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        out = op.fn()
    except OpTimeout:
        out = Failed(f"over the {OP_CAP_S} s cap")
    except Exception as exc:  # a library error on a valid input
        out = Failed(f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, time.perf_counter() - t0


def setup(wl, seed, tracer=None):
    """Fresh import, inputs, warm-up; returns (modules, ops)."""
    jv = fresh_import()
    if tracer is not None:
        tracer.install(vars(jv))
    ops = wl.build(jv, seed)
    by_label = {op.label: op for op in ops}
    for label in wl.WARM:
        run_op(by_label[label])
    return jv, ops


def timed_setup(cls, seed, speed):
    """Set up; returns (workload, modules, ops, seconds at the reference
    speed)."""
    gc.collect()
    speed.bracket()
    t0 = time.perf_counter()
    wl = cls()
    jv, ops = setup(wl, seed)
    seconds = time.perf_counter() - t0
    return wl, jv, ops, seconds * speed.bracket()


def set_up_aside(cls, seed, speed) -> float:
    """Time one more set-up, then put the current import back in sys.modules:
    the library imports some modules inside functions, so the operations
    must find their own import there."""
    kept = {name: sys.modules[name] for name in _jetvar_modules()}
    seconds = timed_setup(cls, seed, speed)[3]
    for name in _jetvar_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


class Rounds:
    """Whole rounds of a workload's operations, with their outcomes."""

    def __init__(self, ops, speed):
        self.ops = ops
        self.speed = speed
        self.first = {}         # label -> first output
        # seconds at the reference speed, every attempt; a failed one at the cap
        self.latencies = []
        self.by_label = {op.label: [] for op in ops}  # the same, per operation
        self.failed = []        # labels, one per failed attempt
        self.why = {}           # label -> how it failed
        self.mismatched = set()
        self.rounds = 0
        self.round_s = []       # wall seconds of each round, unscaled

    def run_round(self, on_failure=None):
        t0 = time.perf_counter()
        pending = []  # (label, seconds) since the last calibration
        for op in self.ops:
            if self.speed.due():
                self._scaled(pending)
            out, dt = run_op(op)
            if isinstance(out, Failed):
                # a failure misses any latency limit: count it at the cap
                self.latencies.append(OP_CAP_S)
                self.by_label[op.label].append(OP_CAP_S)
                self.failed.append(op.label)
                self.why[op.label] = out.why
                if on_failure is not None:
                    on_failure()
                continue
            pending.append((op.label, dt))
            if op.label not in self.first:
                self.first[op.label] = out
            elif out != self.first[op.label]:
                self.mismatched.add(op.label)
        self._scaled(pending)
        self.rounds += 1
        self.round_s.append(time.perf_counter() - t0)
        return self

    def _scaled(self, pending):
        """Record the latencies of the operations since the last calibration,
        at the reference speed."""
        scale = self.speed.bracket()
        for label, dt in pending:
            self.latencies.append(dt * scale)
            self.by_label[label].append(dt * scale)
        pending.clear()


def digests_of(wl, jv, outputs) -> dict:
    out = {}
    for label, value in outputs.items():
        if label.startswith(wl.DIGESTED):
            blob = "\x00".join(wl.texts(jv, label, value)).encode()
            out[label] = hashlib.sha256(blob).hexdigest()
    return out


def check(wl, jv, rounds, seed, faults) -> list:
    problems = wl.check(jv, rounds.first, seed)
    problems += [f"{label}: failed x{rounds.failed.count(label)}, {rounds.why[label]}"
                 for label in sorted(set(rounds.failed) - set(faults))]
    problems += [f"{label}: output changed between rounds"
                 for label in sorted(rounds.mismatched)]
    recorded = json.loads(DIGESTS.read_text()).get(wl.name, {})
    for label, digest in digests_of(wl, jv, rounds.first).items():
        if label in recorded and recorded[label] != digest:
            problems.append(f"{label}: output differs from the recorded digest")
    return problems


def end_to_end(setup_times, rounds) -> dict:
    """The median latency of each operation over the rounds, at the
    reference speed, a failed one counting at the cap: summed into the time
    of a typical round for ops_per_s, and averaged geometrically over the
    operations for op_ms_p50.  The median of all latencies pooled falls
    between operations of very different cost, where it jumps with the seed
    and with the host's speed (README.md)."""
    medians = [statistics.median(v) for v in rounds.by_label.values()]
    completed = (len(rounds.latencies) - len(rounds.failed)) / rounds.rounds
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (completed / sum(medians), "ops/s"),
        "op_ms_p50": (1e3 * statistics.geometric_mean(medians), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def traced(wl, seed, untraced, seconds, tag):
    """Set up again with spans on, and repeat the first rounds of the
    untraced run: as many as fit in a quarter of its time, at least one.
    Returns (metrics, rounds, modules)."""
    from spans import Tracer

    n, spent = 1, untraced.round_s[0]
    while n < untraced.rounds and spent + untraced.round_s[n] <= seconds / 4:
        spent += untraced.round_s[n]
        n += 1
    tracer = Tracer()
    gc.collect()
    jv, ops = setup(wl, seed, tracer)
    again = Rounds(ops, untraced.speed)
    for _ in range(n):
        again.run_round(tracer.reset_stack)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (sum(again.round_s) - spent, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{tag}.tsv.gz"
    count = tracer.write(path)
    print(f"# {count} spans written to {path.relative_to(ROOT)}")
    return metrics, again, jv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record the digests of the canonical and json outputs")
    args = ap.parse_args(argv)

    if not (SRC / "jetvar" / "__init__.py").is_file():
        print(f"error: no jetvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import KNOWN_FAULTS, WORKLOADS

    signal.signal(signal.SIGALRM, _on_alarm)

    if args.write_digests:
        return write_digests(WORKLOADS, args.seed)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    faults = KNOWN_FAULTS.get(args.workload, {})

    speed = HostSpeed()
    wl, jv, ops, seconds = timed_setup(cls, args.seed, speed)
    setup_times = [seconds]
    gc.collect()
    rounds = Rounds(ops, speed)
    while sum(rounds.round_s) < args.seconds or len(setup_times) < SETUP_REPEATS:
        if sum(rounds.round_s) < args.seconds:
            rounds.run_round()
        # the other set-ups are spread evenly over the run: the host's speed
        # drifts for seconds at a time, and nine set-ups in a row had twice
        # the spread over ten runs (README.md)
        due = 1 + int(SETUP_REPEATS * sum(rounds.round_s) / args.seconds)
        while len(setup_times) < min(due, SETUP_REPEATS):
            setup_times.append(set_up_aside(cls, args.seed, speed))
    metrics = end_to_end(setup_times, rounds)
    problems = check(wl, jv, rounds, args.seed, faults)
    if args.trace:
        # tracing must not change any output or any outcome; the texts are
        # taken before the traced set-up replaces this import
        texts = {k: wl.texts(jv, k, v) for k, v in rounds.first.items()}
        wl_traced = cls()
        metrics, again, jv_traced = traced(wl_traced, args.seed, rounds,
                                           args.seconds, f"{wl.name}-{args.seed}")
        if (texts != {k: wl_traced.texts(jv_traced, k, v) for k, v in again.first.items()}
                or set(rounds.failed) != set(again.failed)):
            problems.append("traced rounds differ from untraced rounds")
    print(f"# {wl.name} seed {args.seed}: {rounds.rounds} rounds of "
          f"{len(ops)} operations in {sum(rounds.round_s):.2f} s")
    for label in sorted(set(rounds.failed)):
        print(f"# failed x{rounds.failed.count(label)}: {label}, "
              f"{rounds.why[label]} ({faults.get(label, 'unexpected')})")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    # shown, not gated: it swings too much from run to run (see README.md)
    p90 = 1e3 * statistics.quantiles(rounds.latencies, n=10)[8]
    print(f"# op_ms_p90 = {p90:.6g} ms (not in the result)")
    wall = (len(rounds.latencies) - len(rounds.failed)) / sum(rounds.round_s)
    print(f"# unscaled: {wall:.6g} completed ops/s of wall time; the host ran "
          f"at {CAL_REF_S / speed.last:.3g}x the reference speed at the end")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds.latencies),
        "failed": len(rounds.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_digests(workloads, seed) -> int:
    """Run one round of every workload and record its output digests."""
    recorded = {}
    for name, cls in workloads.items():
        wl = cls()
        gc.collect()
        jv, ops = setup(wl, seed)
        first = Rounds(ops, HostSpeed()).run_round().first
        recorded[name] = dict(sorted(digests_of(wl, jv, first).items()))
        print(f"# {name}: {len(recorded[name])} digests")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
