"""Gröbner and rational-arithmetic work of every benchmark job, to
compare the work of two checkouts job by job.

    python3 tests/workload_work.py SRC [--seed N] > work.txt

SRC is the `src/` directory of the checkout to measure; the job lists
come from this checkout's `perfbench/workloads.py`.  Every job of the
four workloads, for workload seed N (default 1), runs once in this
process through `cidcurve.cli.main` with `--output json`.  The counters
are installed from outside by rebinding five names of SRC's
`cidcurve.groebner`, its `lt_numerator` and `cidcurve.hilbert`'s,
`cidcurve.ideals.colon_principal` and the constructors of
`fractions.Fraction`, so neither SRC nor `perfbench/` changes; SRC's
`cidcurve.ideals._SCREEN_FIELD` names the screening prime p:

- runs: calls of `_buchberger`, one per Buchberger run;
- reductions: calls of `_Reducer.reduce`: inside a run, the reduction
  of each generator and S-polynomial and each tail reduction of the
  interreduction; outside, each normal form against a basis;
- image: those reductions run by a reducer over F_p for the screening
  prime p, the work on images mod p of QQ ideals; the rest is exact
  work, over QQ or over the job's own field (0 for a checkout without
  a screening prime);
- zeros: those reductions whose normal form is zero;
- skipped: S-pairs that a run with a Hilbert target drops unreduced
  because S/LT(G) already has the target's Hilbert function in the
  degree of their lcm (`_filled` answering yes), those popped after
  the target is reached included (0 for a checkout without `_filled`);
- fractions: `Fraction` objects built, by the program or by Fraction's
  own arithmetic (`Fraction.__new__`, and `Fraction._from_coprime_ints`
  on Pythons whose arithmetic builds its results there);
- pairs: S-pairs that `_update_pairs` forms for a new basis element,
  those the criteria keep;
- known: runs that start from the entries of a known basis (the sixth
  argument of `_buchberger`, `known`; 0 for a checkout without it);
- stopped: runs that return no basis because their dimension bound
  stopped them (`_buchberger` returning None);
- bits: the largest bit length of a coefficient of any entry added to
  a reducer (`_Reducer.add`) during the job; over QQ the size of the
  numbers the runs carry, which a falling reduction count can hide;
- sumbits: the sum, over those `_Reducer.add` calls, of the entry's
  largest coefficient bit length; over QQ a measure of the work the
  entries carry, where bits gives only the widest;
- kpolys: calls of `hilbert.lt_numerator` made outside `_buchberger`,
  the K-polynomials computed for Hilbert data (and for the colon's
  series); those a targeted run keeps up to date are not counted;
- colons: calls of `ideals.colon_principal`, one per principal colon:
  each candidate a linked colon certifies or rejects, and each
  generator the exact fold divides by.

Each job prints one line `workload:seed:job runs reductions image
zeros skipped fractions pairs known stopped bits sumbits kpolys
colons`, and each workload a line `workload:seed:total` with the same
columns, each summed over the jobs except bits, their maximum.  The
counts are deterministic, so `diff` the output of two checkouts.
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
    """Buchberger runs, reductions, those over the screening prime, zero
    reductions, S-pairs skipped by a Hilbert target, Fractions built,
    S-pairs formed, runs started from a known basis, runs stopped by a
    dimension bound, the widest reducer coefficient, the summed width of
    the entries added to reducers, the K-polynomials computed outside a
    Buchberger run, and the principal colons."""

    NAMES = ("runs", "reductions", "image", "zeros", "skipped", "fractions",
             "pairs", "known", "stopped", "bits", "sumbits", "kpolys",
             "colons")

    def __init__(self):
        self.take()
        # the Buchberger runs under way, so that a K-polynomial a run
        # keeps is not counted
        self.depth = 0

    def install(self, groebner, hilbert, ideals, screen):
        buchberger = groebner._buchberger
        reduce = groebner._Reducer.reduce
        add = groebner._Reducer.add
        update_pairs = groebner._update_pairs

        def counted_buchberger(*args, **kwargs):
            self.runs += 1
            known = args[5] if len(args) > 5 else kwargs.get("known")
            self.known += bool(known)
            self.depth += 1
            try:
                out = buchberger(*args, **kwargs)
            finally:
                self.depth -= 1
            self.stopped += out is None
            return out

        def counted_add(reducer, lm, d):
            widest = max(abs(c).bit_length() for c in d.values())
            self.bits = max(self.bits, widest)
            self.sumbits += widest
            return add(reducer, lm, d)

        def counted_reduce(reducer, *args, **kwargs):
            out = reduce(reducer, *args, **kwargs)
            self.reductions += 1
            self.image += reducer.char == screen
            self.zeros += not out[0]
            return out

        def counted_update_pairs(pairs, lms, t, packing):
            out = update_pairs(pairs, lms, t, packing)
            self.pairs += sum(pair[3] == t for pair in out)
            return out

        groebner._buchberger = counted_buchberger
        groebner._Reducer.reduce = counted_reduce
        groebner._Reducer.add = counted_add
        groebner._update_pairs = counted_update_pairs
        if hasattr(groebner, "_filled"):
            filled = groebner._filled

            def counted_filled(*args, **kwargs):
                out = filled(*args, **kwargs)
                self.skipped += out
                return out

            groebner._filled = counted_filled
        colon_principal = ideals.colon_principal

        def counted_colon(*args, **kwargs):
            self.colons += 1
            return colon_principal(*args, **kwargs)

        ideals.colon_principal = counted_colon
        for module in (hilbert, groebner):
            if hasattr(module, "lt_numerator"):
                module.lt_numerator = self._counted_numerator(
                    module.lt_numerator)
        self._count_fractions(fractions.Fraction)

    def _counted_numerator(self, lt_numerator):
        def counted(*args, **kwargs):
            self.kpolys += not self.depth
            return lt_numerator(*args, **kwargs)

        return counted

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
        counts = tuple(getattr(self, name, 0) for name in self.NAMES)
        for name in self.NAMES:
            setattr(self, name, 0)
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
    import cidcurve.hilbert as hilbert
    import cidcurve.ideals as ideals
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported cidcurve from {cli.__file__}, "
                         f"not from {src}")
    counter = _Counter()
    screen = getattr(ideals, "_SCREEN_FIELD", None)
    counter.install(groebner, hilbert, ideals,
                    screen.characteristic if screen else None)
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            totals = [0] * len(_Counter.NAMES)
            for job in workloads.build(name, args.seed):
                path = Path(tmp) / job.filename
                path.write_text(job.text)
                argv = list(job.argv) + ["--input", str(path),
                                         "--output", "json"]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
                counts = counter.take()
                totals = [max(t, c) if key == "bits" else t + c
                          for key, t, c in zip(_Counter.NAMES, totals,
                                               counts)]
                print(f"{name}:{args.seed}:{job.name}", *counts)
            print(f"{name}:{args.seed}:total", *totals, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
