"""Gröbner and rational-arithmetic work of every benchmark job, to
compare the work of two checkouts job by job.

    python3 tests/workload_work.py SRC [--seed N] > work.txt

SRC is the `src/` directory of the checkout to measure; the job lists
come from this checkout's `perfbench/workloads.py`.  Every job of the
four workloads, for workload seed N (default 1), runs once in this
process through `cidcurve.cli.main` with `--output json`.  The counters
are installed from outside by rebinding two names of SRC's
`cidcurve.groebner` and the constructors of `fractions.Fraction`, so
neither SRC nor `perfbench/` changes:

- runs: calls of `_buchberger`, one per Buchberger run;
- reductions: calls of `_Reducer.reduce`: inside a run, the reduction
  of each generator and S-polynomial and each tail reduction of the
  interreduction; outside, each normal form against a basis;
- zeros: those reductions whose normal form is zero;
- fractions: `Fraction` objects built, by the program or by Fraction's
  own arithmetic (`Fraction.__new__`, and `Fraction._from_coprime_ints`
  on Pythons whose arithmetic builds its results there).

Each job prints one line `workload:seed:job runs reductions zeros
fractions`, and each workload a line `workload:seed:total runs
reductions zeros fractions`.  The counts are deterministic, so `diff`
the output of two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("link_qq", "link_fp", "germ", "reject")


class _Counter:
    """Buchberger runs, reductions, zero reductions and Fractions built."""

    def __init__(self):
        self.runs = self.reductions = self.zeros = self.fractions = 0

    def install(self, groebner):
        buchberger = groebner._buchberger
        reduce = groebner._Reducer.reduce

        def counted_buchberger(*args, **kwargs):
            self.runs += 1
            return buchberger(*args, **kwargs)

        def counted_reduce(reducer, *args, **kwargs):
            out = reduce(reducer, *args, **kwargs)
            self.reductions += 1
            self.zeros += not out[0]
            return out

        groebner._buchberger = counted_buchberger
        groebner._Reducer.reduce = counted_reduce
        self._count_fractions(fractions.Fraction)

    def _count_fractions(self, cls):
        new = cls.__new__

        def counted_new(*args, **kwargs):
            self.fractions += 1
            return new(*args, **kwargs)

        cls.__new__ = staticmethod(counted_new)
        if "_from_coprime_ints" in vars(cls):
            from_ints = vars(cls)["_from_coprime_ints"].__func__

            def counted_from_ints(*args, **kwargs):
                self.fractions += 1
                return from_ints(*args, **kwargs)

            cls._from_coprime_ints = classmethod(counted_from_ints)

    def take(self):
        counts = (self.runs, self.reductions, self.zeros, self.fractions)
        self.runs = self.reductions = self.zeros = self.fractions = 0
        return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cidcurve.cli as cli
    import cidcurve.groebner as groebner
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported cidcurve from {cli.__file__}, "
                         f"not from {src}")
    counter = _Counter()
    counter.install(groebner)
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            totals = [0, 0, 0, 0]
            for job in workloads.build(name, args.seed):
                path = Path(tmp) / job.filename
                path.write_text(job.text)
                argv = list(job.argv) + ["--input", str(path),
                                         "--output", "json"]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
                counts = counter.take()
                totals = [t + c for t, c in zip(totals, counts)]
                print(f"{name}:{args.seed}:{job.name}", *counts)
            print(f"{name}:{args.seed}:total", *totals, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
