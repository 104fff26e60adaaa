"""Benchmark of nesth2: four workloads, end-to-end metrics, an optional layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload mc-verify --seed 0 --seconds 30 --trace 0

The package is imported from `src/` beside this directory, never from an
installed copy. Every time reported is CPU time of the process (see
`spans.CLOCK`). Set-up (starting Python, importing nesth2 and drawing the
plants) is timed three times: once here and twice in fresh interpreters.
Passes over the workload's requests then repeat until `--seconds` have
gone, and at least three times. Each request's output is checked after its clock stops.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the first half of the time runs untraced and the second half
runs with every traced nesth2 function wrapped (see spans.py); the last
line then carries the per-layer metrics. Both are one JSON object with the
keys correct, attempted, failed and metrics. The environment record, the
stress-set refusals and any failed check are printed on the line before.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import environment
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, ".work")

#: a median of three passes rides out one pass slowed by a neighbour
MIN_PASSES = 3
SETUP_SAMPLES = 3

#: name, unit, which way is better, regression bound (share of the median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_cpu_s", "s", "lower", 0.25),
    ("request_p50_cpu_s", "s", "lower", 0.25),
    ("request_p90_cpu_s", "s", "lower", 0.25),
    ("fail_share", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_FIELD_UNITS = {"calls": "count", "self_s": "s", "errors": "count",
                "total_s": "s", "path_steps": "count", "flops": "flop",
                "kron_bytes": "B", "system_side": "count"}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span in spans.SPAN_NAMES:
        names += [f"{span}.{f}" for f in ("calls", "self_s", "errors")]
        if span in spans.TOTAL_TIME:
            names.append(f"{span}.total_s")
        names += [f"{span}.{f}" for s, f in spans.COMPUTED_FIELDS
                  if s == span]
    out = [(name, _FIELD_UNITS[name.rsplit(".", 1)[1]]) for name in names]
    return out + [("trace_overhead_s", "s")]


@dataclasses.dataclass
class Pass:
    traced: bool
    timed_ids: set = dataclasses.field(default_factory=set)
    all_ids: set = dataclasses.field(default_factory=set)
    durations: list = dataclasses.field(default_factory=list)
    failed: int = 0
    refused: int = 0

    @property
    def cpu(self):
        return sum(self.durations)

    @property
    def requests(self):
        return len(self.all_ids)


class Runner:
    """Runs passes over the requests and checks every output."""

    def __init__(self, requests, refusal_types):
        self.requests = requests
        self.refusal_types = refusal_types
        self.passes = []
        self.digests = {}
        self.problems = []
        self.refusals = {}

    def run_pass(self, recorder):
        result = Pass(traced=recorder is not None)
        number = len(self.passes)
        for i, req in enumerate(self.requests):
            rid = f"{number}.{i}"
            result.all_ids.add(rid)
            if not req.stress:
                result.timed_ids.add(rid)
            if recorder is not None:
                recorder.open(rid)
            error = None
            start = spans.CLOCK()
            try:
                output = req.call()
            except Exception as exc:  # every request is classified, not fatal
                error = exc
            elapsed = spans.CLOCK() - start
            if recorder is not None:
                recorder.close()
            if not req.stress:
                result.durations.append(elapsed)
            if error is None:
                problem, digest = req.check(output)
            elif req.stress and isinstance(error, self.refusal_types):
                result.refused += 1
                refusal = {"request": req.label,
                           "stage": spans.failing_stage(error),
                           "error": type(error).__name__,
                           "message": str(error).splitlines()[0]}
                problem, digest = None, json.dumps(refusal)
                if recorder is not None:
                    # the earliest traced call that raised, which may be
                    # below the stage whose error reached the caller
                    raised = [s for s in recorder.spans
                              if s.request == rid and s.error]
                    refusal["first_raised"] = min(
                        raised, key=lambda s: s.end).name if raised else None
                self.refusals[req.label] = refusal
            else:
                traceback.print_exception(error, file=sys.stderr)
                problem = f"raised {type(error).__name__}: {error}"
                digest = None
            if problem is None and self.digests.setdefault(req.label, digest) \
                    != digest:
                problem = "output differs from the first pass"
            if problem is not None:
                result.failed += 1
                self.problems.append(f"pass {number}: {req.label}: {problem}")
        self.passes.append(result)

    def run_until(self, deadline, least, recorder=None):
        tracing = spans.installed(recorder) if recorder is not None \
            else contextlib.nullcontext()
        with tracing:
            done = 0
            while done < least or time.perf_counter() < deadline:
                self.run_pass(recorder)
                done += 1


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes, setup_samples):
    durations = [d for p in passes for d in p.durations]
    # Jeffreys estimate of the failure probability per pass, (f + 1/2) /
    # (n + 1): never 0, and one more failing request always raises it
    shares = [(p.failed + p.refused + 0.5) / (p.requests + 1) for p in passes]
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_cpu_s": statistics.median(p.cpu for p in passes),
        "request_p50_cpu_s": percentile(durations, 0.5),
        "request_p90_cpu_s": percentile(durations, 0.9),
        "fail_share": statistics.fmean(shares),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(recorder, passes):
    untraced = [p.cpu for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    rows = [spans.aggregate(recorder.spans, p.timed_ids, p.all_ids)
            for p in traced]
    # counts repeat exactly from pass to pass, so they stay whole numbers
    out = {key: (statistics.median_low if isinstance(value, int)
                 else statistics.median)([row[key] for row in rows])
           for key, value in rows[0].items()}
    out["trace_overhead_s"] = statistics.median(p.cpu for p in traced) \
        - statistics.median(untraced)
    return out


def setup_sample(args):
    """Set-up time of a fresh interpreter running the same set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-verify", "verify-sweep", "synth-scale",
                                 "ensemble-oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result, with the "
                             "environment and any spans, to FILE")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the self-test; the figures "
                             "mean nothing")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nesth2", "__init__.py")):
        print(f"error: nesth2 sources not found under {SRC}", file=sys.stderr)
        return 2
    environment.pin_threads()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        sys.path.insert(0, SRC)
        import workloads

        requests = workloads.build(args.workload, args.seed, workdir,
                                   tiny=args.tiny)
        # CPU time since the interpreter started, as for every request
        setup = time.process_time()
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        return measure(args, requests, setup, workloads.REFUSALS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def measure(args, requests, setup, refusal_types):
    import nesth2

    if os.path.dirname(os.path.abspath(nesth2.__file__)) \
            != os.path.join(SRC, "nesth2"):
        print(f"error: nesth2 imported from {nesth2.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup_samples = [setup] + [setup_sample(args)
                               for _ in range(SETUP_SAMPLES - 1)]
    runner = Runner(requests, refusal_types)
    recorder = spans.Recorder() if args.trace else None
    start = time.perf_counter()
    start_cpu = spans.CLOCK()
    if recorder is None:
        runner.run_until(start + args.seconds, MIN_PASSES)
        metrics = end_to_end(runner.passes, setup_samples)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    else:
        runner.run_until(start + args.seconds / 2, 1)
        runner.run_until(start + args.seconds, 1, recorder)
        metrics = per_layer(recorder, runner.passes)
        units = dict(per_layer_metrics())
    elapsed = time.perf_counter() - start
    cpu = spans.CLOCK() - start_cpu
    failed = sum(p.failed for p in runner.passes)
    attempted = sum(p.requests for p in runner.passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment.record(),
        "passes": len(runner.passes),
        "traced_passes": sum(p.traced for p in runner.passes),
        "requests_per_pass": len(requests),
        "setup_samples_s": setup_samples,
        "pass_cpu_s": [p.cpu for p in runner.passes],
        # elapsed over CPU time of the passes: what the machine took away
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "computed": [f"{s}.{f}" for s, f in spans.COMPUTED_FIELDS],
        "stress_refusals": list(runner.refusals.values()),
        "problems": runner.problems,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    if args.out:
        full = dict(record, result=result)
        if recorder is not None:
            full["spans"] = [dataclasses.asdict(s) for s in recorder.spans]
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1)
            fh.write("\n")
    for name, unit in units.items():
        print(f"{name:58s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
