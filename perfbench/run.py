#!/usr/bin/env python3
"""Run one benchmark workload of `pomdp_geometry` and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The workload runs in this fresh process, one caller in a closed
loop.  `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the
environment and list the metrics and any failures for a reader.  See
README.md in this directory.
"""

import time

START = time.perf_counter()  # set-up time counts from here: imports included

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "pomdp_geometry"

SETUP_RUNS = 5         # set-ups per run (this process plus four more); median reported
MIN_TASKS = 100        # so that ten samples lie beyond the 90th percentile
REFERENCE_REPEATS = 3  # reference computations per probe; the fastest is kept
SPEED_WINDOW = 4       # probes on each side of a task that set its host speed
CHILD_TIMEOUT_S = 60
HOST_NOTE = ("one caller on a host whose cores may be shared with other processes; "
             "isolated stalls of ~100 ms on sub-millisecond solves have been seen; "
             "task timings are scaled to the host's uncontended speed by a reference probe")

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
                    "task_p90_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="stop after this many tasks (smoke tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.max_tasks is not None and args.max_tasks < 2:
        parser.error("--max-tasks must be at least 2")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"run.py: no package source under {PACKAGE_DIR.relative_to(ROOT)}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import numpy as np
    import pomdp_geometry as pg

    if Path(pg.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print(f"run.py: imported pomdp_geometry from {pg.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        workload = workloads.WORKLOADS[args.workload](
            pg, np.random.default_rng(args.seed), ROOT, workdir)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        order = task_order(len(workload.tasks), args.seed, np)
        print("env " + json.dumps(environment(args, np)))
        if args.trace:
            result = run_traced(workload, order, args)
        else:
            result = run_timed(workload, order, args)
            setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_RUNS - 1)]
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass  # another run still uses it
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def task_order(n_tasks, seed, np):
    """Task indices for the loop: a fresh seeded permutation per pass."""
    rng = np.random.default_rng([seed, 1])
    while True:
        yield from (int(i) for i in rng.permutation(n_tasks))


class Outcomes:
    """Failed tasks by reason: raised, or output rejected by its reference check.

    A failure that is the known defect its task declares counts in `known`:
    it lowers `ok_frac` but leaves the run verified.  Any other failure,
    an output a check cannot read included, counts in `failed` and marks
    the run as not verified (`correct` false).
    """

    def __init__(self):
        self.known = Counter()
        self.unexpected = Counter()

    def record(self, task, result, error):
        if error is not None:
            # numbers vary between tasks; the reason is the message without them
            message = re.sub(r"\d[\d.e+-]*", "#", str(error).partition("\n")[0])
            reason = f"raised {type(error).__name__}: {message[:120]}"
            expected = task.may_raise
        else:
            try:
                reason = task.check(result)
            except Exception as exc:  # an output the check cannot read is a wrong output
                reason = f"check raised {type(exc).__name__}"
                expected = False
            else:
                expected = reason == task.known_miss
            if reason is None:
                return
        (self.known if expected else self.unexpected)[reason] += 1

    @property
    def failed(self):
        return sum(self.unexpected.values())

    @property
    def verified(self):
        return not self.unexpected

    def ok_frac(self, attempted):
        return (attempted - sum(self.known.values()) - self.failed) / attempted

    def report(self, attempted):
        known = sum(self.known.values())
        print(f"  tasks attempted {attempted}, known defects {known}, "
              f"unexpected failures {self.failed}, "
              f"failed_frac {1.0 - self.ok_frac(attempted):.6g}")
        for kind, counts in (("known", self.known), ("unexpected", self.unexpected)):
            for reason, count in counts.most_common():
                print(f"    {kind} x{count}: {reason}")


class HostSpeed:
    """Times a fixed reference computation before every task.

    The host's cores are shared: its speed drifts by up to ~1.6x over
    seconds to minutes, in the task and in the reference alike.  A task's
    latency is scaled by the fastest reference time of the run over the
    mean reference time around the task, which gives the latency at the
    host's uncontended speed.  The reference calls nothing in the package.
    """

    def __init__(self, reference):
        self._reference = reference
        self.times = []  # times[k] was taken just before task k

    def probe(self):
        best = math.inf
        for _ in range(REFERENCE_REPEATS):  # the first may pay for a cold cache
            start = time.perf_counter()
            self._reference()
            best = min(best, time.perf_counter() - start)
        self.times.append(best)

    def factors(self, n_tasks):
        """Fastest reference time over the mean of the probes around each task."""
        fastest = min(self.times)
        prefix = [0.0, *itertools.accumulate(self.times)]
        out = []
        for i in range(n_tasks):
            lo, hi = max(0, i - SPEED_WINDOW), min(len(self.times), i + SPEED_WINDOW + 2)
            out.append(fastest * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out


def run_tasks(tasks, outcomes, stop):
    """Closed loop over `tasks` until `stop(done)`; returns latencies in seconds."""
    latencies = []
    for task in tasks:
        if stop(len(latencies)):
            break
        start = time.perf_counter()
        try:
            result, error = task.call(), None
        except Exception as exc:  # a task failure is a measured outcome
            result, error = None, exc
        latencies.append(time.perf_counter() - start)
        outcomes.record(task, result, error)
    return latencies


def run_timed(workload, order, args):
    n_tasks = len(workload.tasks)
    host = HostSpeed(workload.reference)
    begin = time.perf_counter()

    def stop(done):
        if args.max_tasks is not None:
            return done >= args.max_tasks
        if done % n_tasks:  # whole passes only, so every run has the designed mix
            return False
        return done >= MIN_TASKS and time.perf_counter() - begin >= args.seconds

    def tasks():
        for i in order:
            host.probe()  # also the probe after the previous task
            yield workload.tasks[i]

    outcomes = Outcomes()
    latencies = run_tasks(tasks(), outcomes, stop)
    attempted = len(latencies)
    outcomes.report(attempted)
    factors = host.factors(attempted)
    scaled = [t * f for t, f in zip(latencies, factors)]
    p50, p90 = (statistics.median(scaled) * 1e3,
                statistics.quantiles(scaled, n=10, method="inclusive")[8] * 1e3)
    raw_p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
    print(f"  unscaled: tasks_per_s {attempted / sum(latencies):.6g}, "
          f"task_p50_ms {statistics.median(latencies) * 1e3:.6g}, task_p90_ms {raw_p90:.6g}; "
          f"host speed factor mean {statistics.fmean(factors):.4g}, "
          f"min {min(factors):.4g}; fastest reference {min(host.times) * 1e3:.4g} ms")
    values = {
        "tasks_per_s": attempted / sum(scaled),
        "task_p50_ms": p50,
        "task_p90_ms": p90,
        "ok_frac": outcomes.ok_frac(attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"correct": outcomes.verified, "attempted": attempted, "failed": outcomes.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}}


def run_traced(workload, order, args):
    """Each task of a fixed list twice, untraced and traced, in alternating order.

    The list is the fewest whole passes of the seeded order that hold
    MIN_TASKS tasks, so per-layer counts repeat exactly for a seed;
    alternating which run goes first keeps warm-up and drift out of the
    tracing overhead.
    """
    import tracing

    n_tasks = len(workload.tasks)
    count = math.ceil(MIN_TASKS / n_tasks) * n_tasks
    if args.max_tasks is not None:
        count = min(count, args.max_tasks)
    tracer = tracing.Tracer()
    untraced, traced = Outcomes(), Outcomes()
    untraced_wall = traced_wall = 0.0
    output_bytes = 0
    for i in range(count):
        task = workload.tasks[next(order)]
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_run:
                elapsed, result, error = tracer.run_task(task.call)
                traced_wall += elapsed
                traced.record(task, result, error)
                if workload.output_bytes is not None and error is None:
                    output_bytes += workload.output_bytes(result)
            else:
                untraced_wall += sum(run_tasks([task], untraced, lambda done: False))
    traced.report(count)
    if tracer.missing:
        print(f"  missing (not reported): {', '.join(tracer.missing)}")
        print(f"run.py: traced functions missing from the package: {', '.join(tracer.missing)}",
              file=sys.stderr)
    metrics = tracer.metrics(count, traced_wall, untraced_wall, output_bytes)
    return {"correct": untraced.verified and traced.verified, "attempted": count,
            "failed": traced.failed, "metrics": metrics}


def setup_in_child(args):
    """Set-up time of one more fresh process with the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args, np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(PACKAGE_DIR), "python": sys.version.split()[0],
        "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "note": HOST_NOTE,
    }


def git_commit(root):
    """HEAD of the checkout's own .git, read without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir):
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
