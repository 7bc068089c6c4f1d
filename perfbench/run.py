"""symcocycle benchmark: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload plane-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the word-search scenario is read from ``scenarios/``.

Set-up (import of the package and construction of the workload's maps or
scenario) is repeated ``SETUP_REPEATS`` times with the package's modules
dropped from ``sys.modules`` in between.  Passes then run back to back
in closed loop (one caller, one thread); another pass starts only while
the time left of ``--seconds``, counted from the first set-up, covers a
median pass, so a run does at least one and ends on time on a machine
of any speed.  Every
pass checks its outputs; a pass that misses a tolerance or raises counts
its checks as failed.

The shared 2-core machine this was built on switches between a fast
and a slow state, about 1.6 times apart, within seconds, which no
single run can average out.  So every second a timer pauses the pass
and times ``speed_probe``, a fixed
numpy kernel outside the package, and each segment of the pass is
scaled by the reference probe time over the probe time around it.  Each
set-up repeat is scaled the same way, by the probes just before and
after it.  Process CPU time does not help here: it slows down with wall
time, because the slow phases are the host running the guest's CPU
slower, not this process waiting for a CPU.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``norm_wall_s`` (median pass, speed-normalized),
``setup_s`` (median set-up, speed-normalized) and ``peak_rss_mb``.  The
line before it is a JSON object with the raw ``wall_s`` and set-up time,
the process CPU time of a median pass (``cpu_s``), the median probe
time, ``ops_failed`` (failed share of checked operations),
``err_over_tol`` (worst checked error over its tolerance, fixed for a
given seed) and the warnings counted.

With ``--trace 1`` the layers are wrapped by ``spans.py`` after set-up
and the last line carries the per-layer metrics instead, each a mean
per pass.  Span times leave out the probes; ``trace.norm_wall_s`` is the
traced pass normalized like ``norm_wall_s``, so the two give the
tracing overhead.
"""

import os

# single-threaded numerics; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (imported before set-up is timed)

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "symcocycle"
SETUP_REPEATS = 25

# About what ``speed_probe`` takes on the 2-core Xeon KVM guest the
# baseline was measured on; normalized times are reported as if every
# run saw that speed.
PROBE_REFERENCE_S = 0.062
PROBE_REPEATS = 3
SAMPLE_S = 1.0


def _probe_field(p, q):
    e = 0.24 * np.exp(-0.6 * (p * p + q * q))
    return -q * e, p * e


def _probe_march(p, q, steps, h=1e-3):
    for _ in range(steps):
        k1p, k1q = _probe_field(p, q)
        k2p, k2q = _probe_field(p + 0.5 * h * k1p, q + 0.5 * h * k1q)
        k3p, k3q = _probe_field(p + 0.5 * h * k2p, q + 0.5 * h * k2q)
        k4p, k4q = _probe_field(p + h * k3p, q + h * k3q)
        p = p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
        q = q + h / 6.0 * (k1q + 2.0 * (k2q + k3q) + k4q)
    return p, q


def speed_probe():
    """Seconds for a fixed numpy RK4 kernel that shares no code with the
    package: a 40-point march (interpreter-bound, like the word search)
    plus a 10,000-point march (throughput-bound, like the grids), sized
    to take about equal time.  Its arrays stay small so that it does not
    set the run's peak memory.  Each half is the median of
    ``PROBE_REPEATS`` tries.
    """
    parts = []
    for n, steps in ((40, 700), (10_000, 80)):
        x = np.linspace(-3.0, 3.0, n)
        tries = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _probe_march(x, x[::-1].copy(), steps)
            tries.append(time.perf_counter() - start)
        parts.append(statistics.median(tries))
    return sum(parts)


class SpeedClock:
    """Times a call in segments of about ``SAMPLE_S`` seconds, probing the
    machine's speed between segments from a timer signal.

    The call is paused while a probe runs.  ``raw`` and ``cpu`` are its
    wall and process CPU time without the probes; ``norm`` is the sum of
    its segments, each scaled by the reference over the mean of the
    probes before and after it.
    """

    def __init__(self):
        self.probes = [speed_probe()]
        self.raw = self.norm = self.cpu = 0.0
        self.paused = 0.0  # seconds spent probing so far
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()

    def now(self):
        """Wall time without the probes, for the tracer's spans."""
        return time.perf_counter() - self.paused

    def lap(self, *_):
        stop = time.perf_counter()
        self.cpu += time.process_time() - self.cpu_start
        segment = stop - self.start
        self.probes.append(speed_probe())
        self.paused += time.perf_counter() - stop
        self.raw += segment
        self.norm += segment * PROBE_REFERENCE_S / statistics.fmean(self.probes[-2:])
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()

    def run(self, fn):
        self.raw = self.norm = self.cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self.lap)
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.lap()


def time_setups(setup):
    """Call ``setup`` ``SETUP_REPEATS`` times with a speed probe before the
    first call and after each.  Returns the raw times, the times scaled
    by the reference over the mean of the probes around each call, and
    the last call's result.  The garbage of earlier calls is collected
    before each call, untimed, as a fresh process would have none.
    """
    probes = [speed_probe()]
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        result = setup()
        raw.append(time.perf_counter() - start)
        probes.append(speed_probe())
        norm.append(raw[-1] * PROBE_REFERENCE_S / statistics.fmean(probes[-2:]))
    return raw, norm, result


def fresh_import():
    """Import the package and its CLI module from scratch."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sc = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return sc


def count_warnings():
    """Count warnings by category instead of printing them."""
    counts = Counter()

    def show(message, category, *args, **kwargs):
        counts[category.__name__] += 1

    warnings.simplefilter("always")
    warnings.showwarning = show
    return counts


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    counts = count_warnings()
    checks = workloads.Checks()

    begin = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        def setup():
            sc = fresh_import()
            return sc, workload.setup(sc, inputs, workdir)

        setup_times, norm_setup_times, (sc, state) = time_setups(setup)

        clock = SpeedClock()
        tracer = installation = None
        if args.trace:
            tracer = spans.Tracer(clock.now)
            installation = spans.install(tracer, PACKAGE)
            state = workload.setup(sc, inputs, workdir)  # closures now traced
            tracer.clear()

        def one_pass():
            before = checks.attempted
            try:
                workload.run_pass(state, checks)
            except Exception as e:  # noqa: BLE001 - a failed pass is a result
                done = checks.attempted - before
                checks.fail_rest(workload.check_names[done:], type(e).__name__)
                print(f"pass raised {type(e).__name__}: {e}", file=sys.stderr)

        times, norm_times, cpu_times, elapsed = [], [], [], []
        warned_before_passes = Counter(counts)
        try:
            while True:
                start = time.perf_counter()
                clock.run(one_pass)
                times.append(clock.raw)
                norm_times.append(clock.norm)
                cpu_times.append(clock.cpu)
                elapsed.append(time.perf_counter() - start)
                if time.perf_counter() - begin + statistics.median(elapsed) > args.seconds:
                    break
        finally:
            if installation is not None:
                installation.uninstall()

    wall = statistics.median(times)
    norm_wall = statistics.median(norm_times)
    if checks.failures:
        print("failed checks: " + "; ".join(checks.failures[:10]), file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(times),
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": statistics.median(cpu_times), "unit": "s"},
        "raw_setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "probe_s": {"value": statistics.median(clock.probes), "unit": "s"},
        "ops_failed": {"value": checks.failed / checks.attempted, "unit": "share"},
        "err_over_tol": {"value": checks.worst_ratio, "unit": "ratio"},
        "worst_check": checks.worst_name,
        "warnings": dict(sorted(counts.items())),
    }))

    if args.trace:
        pass_warnings = counts - warned_before_passes
        raw = spans.per_pass_metrics(tracer, len(times), pass_warnings, wall)
        raw["trace.norm_wall_s"] = (norm_wall, "s")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw = {
            "norm_wall_s": (norm_wall, "s"),
            "setup_s": (statistics.median(norm_setup_times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
