"""cidcurve benchmark: closed-loop CLI jobs, end-to-end and per-layer.

    python3 perfbench/run.py --workload link_qq --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One process with one thread runs the workload's job list through
`cidcurve.cli.main(argv)` with `--output json`, one job after another
(a closed loop with one client), and checks every job against its closed
form.  Passes over the job list repeat until `--seconds` have elapsed,
and there are at least two.

Host speed.  The 2-core host this was built on runs pure Python up to
2x slower for stretches from under a second to several minutes, because
of load from outside the container.  Process CPU time slows down with
wall time, so it cannot take its place.  A fixed pure-Python calibration
slice (~2 ms) runs every SAMPLE_INTERVAL_S, also in the middle of a job,
and its time is taken out of the job's.  Each time is then scaled by
REFERENCE_SLICE_S over the median slice within SCALE_WINDOW_S of it: the
reported times are seconds on a host where one slice takes
REFERENCE_SLICE_S.  The raw times and the slice times are printed beside
them.  The host's slow stretches differ between its cores, so a run pins
itself, and the set-up processes it starts, to one core.

`--trace 0` reports the end-to-end metrics:
  setup_s      time from spawning a fresh process until cidcurve is
               imported and the inputs are written; median of 7 such
               processes, spread over the run
  wall_s       time of one pass over the whole job list; median of passes
  job_p50_s    median over the job list of each job's median latency
  largest_s    latency of the workload's largest instance; median of passes
  peak_rss_mb  peak resident memory of this process after the first pass
Failed jobs (`failed_ops`) are the `failed` field of the result line.

`--trace 1` runs one untraced pass and then two passes with the span
recorder installed, and reports the per-layer metrics of the first
traced pass; the deterministic counters of the two traced passes must be
equal.  Per-layer times are raw seconds; `trace.overhead_ratio` compares
scaled pass times.  Spans go to `.perfbench_out/` under the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `correct` is false when
a job returned a wrong answer or the traced counters did not repeat; an
exception escaping `cli.main` is a failed job but no wrong answer.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_INTERVAL_S = 1.0
MIN_PASSES = 2
SLICE_ITERATIONS = 8_000
REFERENCE_SLICE_S = 0.002
SAMPLE_INTERVAL_S = 0.2
SCALE_WINDOW_S = 0.5


def _import_program():
    """Import cidcurve from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cidcurve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cidcurve sources under {src}")
    sys.path.insert(0, str(src))
    import cidcurve.cli

    if Path(cidcurve.__file__).resolve().parent != src / "cidcurve":
        raise SystemExit(f"perfbench: imported cidcurve from "
                         f"{cidcurve.__file__}, not from {src}")
    return cidcurve.cli


def _write_inputs(jobs, directory: Path):
    directory.mkdir(parents=True)
    for job in jobs:
        path = directory / job.filename
        if path.exists() and path.read_text(encoding="utf-8") != job.text:
            raise ValueError(f"two jobs write different {job.filename}")
        path.write_text(job.text, encoding="utf-8")


def _setup(workload: str, seed: int, directory: Path):
    """Everything a run does before its first job."""
    cli = _import_program()
    jobs = workloads.build(workload, seed)
    _write_inputs(jobs, directory)
    return cli, jobs


def _now():
    """A clock that parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_probe(workload: str, seed: int, index: int) -> float:
    """Time from spawning a fresh process until it has set up.

    The child reports when it is ready: timing the wait for its exit
    would add its teardown and the 50 ms polling step of
    `subprocess.run` with a timeout."""
    directory = OUT / f"setup-{os.getpid()}-{index}"
    start = _now()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed),
         "--inputs", str(directory)],
        check=True, timeout=120, capture_output=True, text=True)
    shutil.rmtree(directory)
    return float(child.stdout.split()[-1]) - start


def _slice_seconds():
    """One calibration slice: fixed pure-Python work on small ints,
    tuples and a dict, independent of cidcurve."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(SLICE_ITERATIONS):
        key = (i & 63, i >> 6 & 7)
        acc = (acc * 31 + i) % 1_000_003
        table[key] = table.get(key, 0) + acc
    return time.perf_counter() - start


class Speedometer:
    """Calibration slices taken every SAMPLE_INTERVAL_S while started,
    and the times measured meanwhile, each scaled to the reference host
    speed by the median slice within SCALE_WINDOW_S of it.

    Slices run from a SIGALRM handler, so long jobs are sampled while
    they run; the time spent in slices is taken out of every measured
    time.  The median keeps one disturbed slice from rescaling a job."""

    def __init__(self):
        self.times = []    # start of each slice
        self.slices = []   # its duration
        self.spent = 0.0   # total time inside slices, overhead included
        self.marks = []    # (start, end, raw seconds)
        self.sample()

    def sample(self, *_):
        begin = time.perf_counter()
        took = _slice_seconds()
        self.times.append(begin)
        self.slices.append(took)
        self.spent += time.perf_counter() - begin

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def record(self, begin: float, end: float, raw: float) -> int:
        """Record a time measured between begin and end; returns its
        handle."""
        self.marks.append((begin, end, raw))
        return len(self.marks) - 1

    def raw(self, handle: int) -> float:
        return self.marks[handle][2]

    def scaled(self, handle: int) -> float:
        begin, end, raw = self.marks[handle]
        lo = bisect.bisect_left(self.times, begin - SCALE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SCALE_WINDOW_S)
        window = self.slices[lo:hi]
        if len(window) < 3:
            window = self.slices[max(0, lo - 2):hi + 2]
        return raw * REFERENCE_SLICE_S / statistics.median(window)


def _run_pass(cli, jobs, directory: Path, speed: Speedometer,
              recorder=None, between=None):
    """One pass over the job list; returns [(job, time handle, verdict)].

    A pass takes the sum of its job latencies, so that `between`, called
    after every job, stays outside it."""
    records = []
    for job in jobs:
        if recorder is not None:
            recorder.job = job.name
        argv = list(job.argv) + ["--input", str(directory / job.filename),
                                 "--output", "json"]
        out, err = io.StringIO(), io.StringIO()
        escaped, code = None, None
        begin, spent = time.perf_counter(), speed.spent
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # counted as a failed job, never dropped
            escaped = exc
        end = time.perf_counter()
        handle = speed.record(begin, end,
                              end - begin - (speed.spent - spent))
        records.append((job, handle,
                        (code, out.getvalue(), err.getvalue(), escaped)))
        if between is not None:
            between()
    return [(job, handle, oracle.check(job.expect, *outcome))
            for job, handle, outcome in records]


def _report(verdicts):
    """Print each failed job, and the error type of each job that was
    refused as expected (recorded, not checked)."""
    refused = {}
    for job, verdict in verdicts:
        if not verdict.ok:
            kind = "WRONG" if verdict.wrong else "failed"
            print(f"  {kind}: {job.name}: {verdict.detail}")
        elif verdict.error_type:
            refused.setdefault(job.name, verdict.error_type)
    if refused:
        print("  refused: " + ", ".join(f"{name}={kind}"
                                        for name, kind in refused.items()))


def _timed(cli, jobs, directory, seconds, workload, seed):
    speed = Speedometer()
    passes = []
    rss_mb = None
    setups = []  # time handles
    last_probe = [time.perf_counter()]

    def probe():
        # no slices while the child runs; after it, one slice is thrown
        # away, because the first one after a wait runs slow
        speed.stop()
        begin = time.perf_counter()
        raw = _setup_probe(workload, seed, len(setups))
        end = time.perf_counter()
        _slice_seconds()
        speed.sample()
        speed.start()
        setups.append(speed.record(begin, end, raw))
        last_probe[0] = end

    def probe_now():
        # set-ups are spread over the run so they sample the host at
        # many moments, not during one stretch of it
        if (len(setups) < SETUP_PROBES
                and time.perf_counter() - last_probe[0] >= PROBE_INTERVAL_S):
            probe()

    start = time.perf_counter()
    cpu_start = time.process_time()
    speed.start()
    try:
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start < seconds):
            passes.append(_run_pass(cli, jobs, directory, speed,
                                    between=probe_now))
            if rss_mb is None:
                rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
        cpu = time.process_time() - cpu_start
        while len(setups) < SETUP_PROBES:
            probe()
    finally:
        speed.stop()

    def wall(records, clock):
        return sum(clock(handle) for _, handle, _ in records)

    records = [r for recs in passes for r in recs]
    largest = [h for job, h, _ in records if job.largest]
    metrics = {
        "setup_s": (statistics.median(speed.scaled(h) for h in setups), "s",
                    f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(wall(recs, speed.scaled)
                                     for recs in passes), "s",
                   f"median of {len(passes)} passes"),
        "job_p50_s": (statistics.median(
            statistics.median(speed.scaled(recs[i][1]) for recs in passes)
            for i in range(len(jobs))), "s",
            f"median over {len(jobs)} jobs of each one's median"),
        "largest_s": (statistics.median(speed.scaled(h) for h in largest),
                      "s", f"median of {len(largest)}"),
        "peak_rss_mb": (rss_mb, "MB", "after the first pass"),
    }
    verdicts = [(job, v) for job, _, v in records]
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<12} {value:12.6f} {unit:<3} ({note})")
    print(f"  {'failed_ops':<12} {sum(not v.ok for _, v in verdicts):>5} "
          f"of {len(verdicts)} jobs")
    slices_ms = sorted(1000 * s for s in speed.slices)
    print("  raw: pass_s=" + "/".join(f"{wall(recs, speed.raw):.4f}"
                                      for recs in passes)
          + " setup_s=" + "/".join(f"{speed.raw(h):.4f}" for h in setups)
          + f" cpu_s={cpu:.4f}")
    print(f"  calibration slice ms: min={slices_ms[0]:.3f} "
          f"median={statistics.median(slices_ms):.3f} "
          f"max={slices_ms[-1]:.3f} n={len(slices_ms)}")
    _report(verdicts)
    return metrics, verdicts


def _traced(cli, jobs, directory, workload, seed):
    speed = Speedometer()
    speed.start()
    try:
        untraced = _run_pass(cli, jobs, directory, speed)
        traced = []
        for _ in range(2):
            recorder = spans.Recorder()
            uninstall = spans.install(recorder)
            try:
                traced.append((recorder, _run_pass(cli, jobs, directory,
                                                   speed, recorder)))
            finally:
                uninstall()
    finally:
        speed.stop()

    def wall(records):
        return sum(speed.scaled(handle) for _, handle, _ in records)

    layer_runs = [spans.layer_metrics(recorder.spans, wall(records),
                                      wall(untraced))
                  for recorder, records in traced]
    trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    traced[0][0].dump(trace_path)
    print(f"  {len(traced[0][0].spans)} spans written to {trace_path}")

    first, second = layer_runs
    drift = [name for name in first if spans.is_deterministic(name)
             and first[name][0] != second[name][0]]
    for name, (value, unit) in first.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<46} {shown:>14} {unit}")
    for name in drift:
        print(f"  NOT REPEATED: {name}: {first[name][0]} then "
              f"{second[name][0]}")
    verdicts = [(job, v) for records in [untraced] + [r for _, r in traced]
                for job, _, v in records]
    print(f"  {'failed_ops':<46} {sum(not v.ok for _, v in verdicts):>14} "
          f"of {len(verdicts)} jobs")
    _report(verdicts)
    metrics = {name: (value, unit, "") for name, (value, unit) in
               first.items()}
    return metrics, verdicts, not drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="`all` runs every workload, each in its own "
                             "process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _setup(args.workload, args.seed, Path(args.inputs))
        print(_now())
        return 0
    if args.workload == "all":
        codes = [subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=900).returncode
            for name in workloads.WORKLOADS]
        return max(codes)

    _import_program()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    directory = OUT / f"inputs-{os.getpid()}"
    try:
        cli, jobs = _setup(args.workload, args.seed, directory)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"trace={args.trace} jobs={len(jobs)} nproc={os.cpu_count()} "
              f"python={platform.python_version()}")
        if args.trace:
            metrics, verdicts, repeated = _traced(cli, jobs, directory,
                                                  args.workload, args.seed)
        else:
            metrics, verdicts = _timed(cli, jobs, directory, args.seconds,
                                       args.workload, args.seed)
            repeated = True
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    result = {
        "correct": repeated and not any(v.wrong for _, v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for _, v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
