"""Run `synthesize`, `analyze`, `verify --oracle` and `verify --seed 7` over
the 400-plant family.

The family is `random_plant(1000 + 97 i, n_split=(2, 2))` for i < 400.
Every exit code and standard output is written to a JSON file keyed by
plant seed and command, beside the BLAS thread settings of the run. With
`--compare OLD.json` the run is then compared with an earlier one. One
line per command and report label gives how many plants' lines moved and
the largest relative move. Then each changed exit code is listed, and so is
each report line whose value moved, old value against new. A warning line
comes first when the two runs' thread settings differ. The exit status is 1
when any exit code changed, else 0. Pytest does not collect this file; run
it from the repository root with the package on the path:

    PYTHONPATH=src python tests/family.py new.json --compare old.json

A run takes about 12 s with one BLAS thread. Point PYTHONPATH at another
checkout's `src` to record that checkout's run for comparison, with the same
BLAS thread count: the count moves the last digits of the report.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

from nesth2 import cli
from nesth2.fixtures import random_plant
from nesth2.plant import save_plant

SEEDS = tuple(1000 + 97 * i for i in range(400))
COMMANDS = {"synthesize": ["synthesize"], "analyze": ["analyze"],
            "verify --oracle": ["verify", "--oracle"],
            "verify --seed 7": ["verify", "--seed", "7"]}
#: the variables that set the BLAS and OpenMP thread counts, as the
#: benchmark pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def run_family():
    """{str(seed): {command: {"exit": code, "stdout": text}}}."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            path = os.path.join(tmp, f"plant-{seed}.json")
            save_plant(random_plant(seed, n_split=(2, 2)), path)
            results[str(seed)] = {
                name: _run([argv[0], path] + argv[1:])
                for name, argv in COMMANDS.items()}
    return results


def compare(old, new):
    """Compare two runs' plant tables.

    Returns the lines naming each changed exit code and each moved report
    line, the moved lines as (seed, command, old line, new line) for
    `summary`, and whether any exit code changed.
    """
    lines, moved, exit_changed = [], [], False
    for seed in new:
        for name, got in new[seed].items():
            was = old.get(seed, {}).get(name)
            if was is None:
                lines.append(f"{seed} {name}: not in the old run")
                continue
            if was["exit"] != got["exit"]:
                exit_changed = True
                lines.append(f"{seed} {name}: exit {was['exit']} -> "
                             f"{got['exit']}")
            before = was["stdout"].splitlines()
            after = got["stdout"].splitlines()
            if len(before) != len(after):
                lines.append(f"{seed} {name}: {len(before)} -> {len(after)} "
                             f"report lines")
            for a, b in zip(before, after):
                if a != b:
                    moved.append((seed, name, a, b))
                    # the controller document is one long line; its head
                    # names what moved
                    lines.append(f"{seed} {name}: {a.strip()[:120]!r} -> "
                                 f"{b.strip()[:120]!r}")
    return lines, moved, exit_changed


def _labelled_value(line):
    """(label, value) of a report line that ends in a number, else None."""
    label, _, last = line.strip().rpartition(" ")
    try:
        return label.strip(), float(last)
    except ValueError:
        return None


def summary(moved):
    """One line per command and report label, sorted by both: on how many
    plants a line under it moved, and the largest relative move
    |new - old| / max(|old|, |new|). A line that does not end in a number
    under the same label in both runs counts under "other lines", with no
    move."""
    groups = {}
    for seed, name, a, b in moved:
        old, new = _labelled_value(a), _labelled_value(b)
        if old is None or new is None or old[0] != new[0]:
            key, move = (name, "other lines"), None
        else:
            scale = max(abs(old[1]), abs(new[1]))
            key = (name, old[0])
            move = abs(new[1] - old[1]) / scale if scale else 0.0
        seeds, moves = groups.setdefault(key, (set(), []))
        seeds.add(seed)
        moves.append(move)
    lines = []
    for (name, label), (seeds, moves) in sorted(groups.items()):
        numeric = [m for m in moves if m is not None]
        largest = f"largest relative move {max(numeric):.1e}" if numeric \
            else "not numeric"
        lines.append(f"{name}: {label}: {len(seeds)} plants changed, "
                     f"{largest}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file for this run")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="an earlier run to compare this one with")
    args = parser.parse_args(argv)
    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    results = run_family()
    with open(args.out, "w") as fh:
        json.dump({"threads": threads, "plants": results}, fh, indent=1)
    for name in COMMANDS:
        failed = [seed for seed in results if results[seed][name]["exit"]]
        print(f"{name}: {len(results) - len(failed)} of {len(results)} exit "
              f"0; nonzero: {' '.join(failed) or 'none'}")
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        # a run recorded before the thread settings were kept is the bare
        # plant table
        old_threads = old.get("threads")
        if old_threads != threads:
            print(f"warning: BLAS thread settings differ: "
                  f"{old_threads or 'not recorded'} in {args.compare}, "
                  f"{threads} here")
        changes, moved, exit_changed = compare(old.get("plants", old),
                                               results)
        print(f"{len(changes)} changes against {args.compare}")
        for line in summary(moved) + changes:
            print(line)
        if exit_changed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
