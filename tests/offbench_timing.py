"""Time the paths the benchmark does not run, each in fresh processes.

    python3 tests/offbench_timing.py SRC [--runs N] [--rnc6-qq]

SRC is the `src/` directory of the checkout to time.  Each case runs N
times (default 3), every run in a new Python process that imports
cidcurve from SRC, builds its inputs untimed and then times the path
alone in process CPU seconds.  One line per case gives the median, the
smallest and largest run, and a hash of the result; a case whose runs
disagree on the hash prints every hash.  A run still going after
TIMEOUT_S (60) wall-clock seconds is killed, and its case is reported as
killed with no further runs.  Compare the hashes of two checkouts to
see that a change returns the same witnesses and reports.

- `construct_ci_transversal` on the degree-5 rational normal curve (RNC5)
  at seeds 0 and 1;
- `transversality_count` on those two witnesses;
- `radical_zero_dim` over F_32003 of RNC5's witness scheme on its chart,
  `on_curve + (h - 1)` for the `construct_ci` witness at seed 0, hashed
  by its printed generators: `transversality_count` needs characteristic
  0, so no other case takes the radical over F_p;
- `cid_routes(route="lci")` on the twisted cubic and its tangent line;
- `construct_ci` plus `genus_report` on RNC6 over F_32003, and, with
  `--rnc6-qq`, over QQ (about 10 s a run);
- `local --field Fp:3` on the space monomial germ (t^3, t^4, t^5);
- `local --precision-cap 16` over F_3 and over QQ on the slow germ
  x = t^14 + t^6, y = 2t^8 + 2t^6 + 2t^3, which certifies no delta
  below the cap and is reported as `PrecisionCapExceeded`;
- `local` over QQ at the default precision cap on the composed branch
  Q(u) with Q = (x + x^2, x^2 + x^3) and u = t^2 + t^3, that is
  x = t^2 + t^3 + t^4 + 2t^5 + t^6, y = t^4 + 2t^5 + 2t^6 + 3t^7 + 3t^8
  + t^9, which runs every window up to the cap and is reported as
  `NotPrimitive`;
- `local` over QQ at the default precision cap on the dense branch
  x = t^5 + t^6 + ... + t^40, y = 7t^7 + 8t^8 + ... + 40t^40 (delta 12),
  whose 36 and 34 terms no benchmark germ has: it times the doubling
  window schedule of `germs.delta_invariant`, which pays off only on a
  dense branch;
- `local_vdim_origin` at cap 32 on the QQ ideal (y - x^3 - x^2,
  z^2 - xyz + y^3) in x, y, z, whose origin lies on a curve, hashed by
  the `PrecisionCapExceeded` it ends with: it times the local length of
  a non-homogeneous ideal whose origin is not isolated, which the
  benchmark never asks;
- `construct_ci` at seed 0 and the default 24 attempts on two QQ curves
  that no draw can certify, each hashed by the error it ends with and
  its tally of failed tests: the double line (x0^2, x0*x1, x1^2), not
  generically reduced, as in the benchmark's `reject` workload, and the
  line x1 = x2 = 0 with an embedded point at (1:0:0:0), whose double
  link fails, which no workload runs;
- `quotient` over QQ of the affine ideal A = (x^3 - yz, y^2 - xz,
  z^3 - 1) by B = (x^2z - y^3, xyz, x^4), the golden `ideal-op`
  quotient, which the benchmark's only affine colon, the residual of
  the space germ, does not cover;
- `saturate_irrelevant` over QQ of RNC5's generators times x0 and x1,
  and `saturate` by (x0) of the ideal of RNC5's generators times x0^2
  and its first generator: homogeneous saturations, which the `germ`
  workload never asks and `link_qq` asks only of Jacobian schemes.
Each of these three is hashed by the printed generators.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CASES = ("transversal_rnc5_s0", "transversal_rnc5_s1",
         "transversality_count_rnc5_s0", "transversality_count_rnc5_s1",
         "radical_rnc5_fp",
         "lci_cubic_and_tangent", "rnc6_fp", "rnc6_qq",
         "local_space_3_4_5_f3", "local_slow_germ_cap16_f3",
         "local_slow_germ_cap16_qq", "local_composed_branch_qq",
         "local_dense_branch_qq", "local_length_not_isolated",
         "reject_double_line_qq", "not_generically_ci_embedded_qq",
         "affine_quotient_qq", "saturate_irrelevant_dirty_rnc5_qq",
         "saturate_x0_rnc5_qq")
TIMEOUT_S = 60

GERM_3_4_5 = ("germ/1 over QQ vars x y z\n"
              "branch a: x = t^3; y = t^4; z = t^5\n"
              "ideal: x*z - y^2, x^3 - y*z, x^2*y - z^2;\n")
SLOW_GERM = ("germ/1 over QQ vars x y\n"
             "branch a: x = t^14 + t^6; y = 2*t^8 + 2*t^6 + 2*t^3\n")
COMPOSED_BRANCH = ("germ/1 over QQ vars x y\n"
                   "branch a: x = t^2 + t^3 + t^4 + 2*t^5 + t^6; "
                   "y = t^4 + 2*t^5 + 2*t^6 + 3*t^7 + 3*t^8 + t^9\n")
DENSE_BRANCH = ("germ/1 over QQ vars x y\n"
                "branch a: x = " + " + ".join(f"t^{k}" for k in range(5, 41))
                + "; y = " + " + ".join(f"{k}*t^{k}" for k in range(7, 41))
                + "\n")


def _rnc(cid, n, field):
    """The rational normal curve of degree n: the 2x2 minors of the
    moving row matrix of monomial products."""
    ring = cid.PolyRing(field, tuple(f"x{k}" for k in range(n + 1)))
    x = ring.variables()
    return cid.CurveInput(ring, [x[i] * x[j] - x[i + 1] * x[j - 1]
                                 for i in range(n + 1)
                                 for j in range(i + 2, n + 1)])


def _cubic_and_tangent(cid):
    """The twisted cubic together with the line x0 = x1 = 0, tangent to
    it at (0:0:0:1)."""
    curve = _rnc(cid, 3, cid.Field.rationals())
    x0, x1 = curve.ring.variable(0), curve.ring.variable(1)
    union = cid.intersect(curve.ideal(), cid.Ideal(curve.ring, [x0, x1]))
    return cid.CurveInput(curve.ring, list(union.generators))


def _embedded_point_line(cid):
    """The line x1 = x2 = 0 with an embedded point at (1:0:0:0)."""
    ring = cid.PolyRing(cid.Field.rationals(), ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    mixed = cid.intersect(cid.Ideal(ring, [x1, x2]),
                          cid.Ideal(ring, [x0, x1**2, x3]))
    return cid.CurveInput(ring, list(mixed.generators))


def _rejected(cid, curve):
    """`construct_ci` on a curve no draw certifies, as the call returning
    the type, tally and message of the error it ends with."""
    from cidcurve.errors import MathPrecondition

    def run():
        try:
            cid.construct_ci(curve, seed=0)
        except MathPrecondition as exc:
            failures = getattr(exc, "failures", None)
            return f"{type(exc).__name__} {failures}: {exc}"
        return "certified"
    return run


def _printed(ideal):
    return "\n".join(str(g) for g in ideal.generators)


def _witness_json(cid, witness):
    return json.dumps(cid.witness_to_dict(witness), sort_keys=True)


def _local(tmp, name, text, field, *options):
    """The `local` command on the germ `text`, written to `name` in
    `tmp`, over `field`, as a call returning its exit code and JSON."""
    import cidcurve.cli as cli
    path = Path(tmp) / name
    path.write_text(text)
    argv = ["local", "--input", str(path), "--field", field,
            "--output", "json", *options]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return f"{code}\n{out.getvalue()}".replace(tmp, "{dir}")
    return run


def _prepare(cid, case, tmp):
    """The untimed setup of a case and the timed call, which returns the
    text that is hashed; `tmp` is a scratch directory for input files."""
    qq = cid.Field.rationals()
    if case.startswith("transversal_rnc5_s"):
        curve, seed = _rnc(cid, 5, qq), int(case[-1])
        return lambda: _witness_json(
            cid, cid.construct_ci_transversal(curve, seed=seed))
    if case.startswith("transversality_count_rnc5_s"):
        curve = _rnc(cid, 5, qq)
        witness = cid.construct_ci_transversal(curve, seed=int(case[-1]))
        return lambda: repr(cid.transversality_count(curve, witness))
    if case == "radical_rnc5_fp":
        witness = cid.construct_ci(_rnc(cid, 5, cid.Field.prime_field(32003)),
                                   seed=0)
        ring = witness.on_curve.ring
        scheme = cid.ideal_sum(witness.on_curve,
                               cid.Ideal(ring, [witness.h - ring.one()]))
        return lambda: "\n".join(
            str(g) for g in cid.radical_zero_dim(scheme).generators)
    if case == "lci_cubic_and_tangent":
        curve = _cubic_and_tangent(cid)
        witness = cid.construct_ci(curve, seed=0)
        return lambda: repr(cid.cid_routes(curve, witness, route="lci"))
    if case in ("rnc6_fp", "rnc6_qq"):
        field = cid.Field.prime_field(32003) if case == "rnc6_fp" else qq
        curve = _rnc(cid, 6, field)

        def run():
            witness = cid.construct_ci(curve, seed=0)
            report = cid.genus_report(curve, witness)
            return _witness_json(cid, witness) + repr(report.to_dict())
        return run
    if case == "local_space_3_4_5_f3":
        return _local(tmp, "space_3_4_5.germ", GERM_3_4_5, "Fp:3")
    if case.startswith("local_slow_germ_cap16_"):
        field = "Fp:3" if case.endswith("_f3") else "QQ"
        return _local(tmp, "slow.germ", SLOW_GERM, field,
                      "--precision-cap", "16")
    if case == "local_composed_branch_qq":
        return _local(tmp, "composed.germ", COMPOSED_BRANCH, "QQ")
    if case == "local_dense_branch_qq":
        return _local(tmp, "dense.germ", DENSE_BRANCH, "QQ")
    if case == "local_length_not_isolated":
        from cidcurve.errors import PrecisionCapExceeded
        ring = cid.PolyRing(qq, ("x", "y", "z"))
        x, y, z = ring.variables()
        a = cid.Ideal(ring, [y - x**3 - x**2, z**2 - x * y * z + y**3])

        def run():
            try:
                return repr(cid.local_vdim_origin(a, 32))
            except PrecisionCapExceeded as exc:
                return f"PrecisionCapExceeded {exc.cap}: {exc}"
        return run
    if case == "reject_double_line_qq":
        ring = cid.PolyRing(qq, ("x0", "x1", "x2", "x3"))
        x0, x1 = ring.variable(0), ring.variable(1)
        return _rejected(cid, cid.CurveInput(ring, [x0**2, x0 * x1, x1**2]))
    if case == "not_generically_ci_embedded_qq":
        return _rejected(cid, _embedded_point_line(cid))
    if case == "affine_quotient_qq":
        ring = cid.PolyRing(qq, ("x", "y", "z"))
        a = cid.Ideal(ring, [ring.parse(f) for f in
                             ("x^3 - y*z", "y^2 - x*z", "z^3 - 1")])
        b = cid.Ideal(ring, [ring.parse(f) for f in
                             ("x^2*z - y^3", "x*y*z", "x^4")])
        return lambda: _printed(cid.quotient(a, b))
    if case.endswith("_rnc5_qq"):
        curve = _rnc(cid, 5, qq)
        x0, x1 = curve.ring.variable(0), curve.ring.variable(1)
        gens = curve.generators
        if case == "saturate_irrelevant_dirty_rnc5_qq":
            dirty = cid.Ideal(curve.ring, [v * g for v in (x0, x1)
                                           for g in gens])
            return lambda: _printed(cid.saturate_irrelevant(dirty))
        a = cid.Ideal(curve.ring, [x0**2 * g for g in gens] + [gens[0]])
        return lambda: _printed(cid.saturate(a, cid.Ideal(curve.ring, [x0])))
    raise SystemExit(f"unknown case {case!r}")


def _child(src, case):
    sys.path.insert(0, str(src))
    import cidcurve as cid

    if not Path(cid.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported cidcurve from {cid.__file__}, "
                         f"not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        call = _prepare(cid, case, tmp)
        start = time.process_time()
        text = call()
        cpu = time.process_time() - start
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    print(json.dumps({"cpu_s": cpu, "hash": digest}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--rnc6-qq", action="store_true",
                        help="also time RNC6 over QQ")
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.case:
        _child(src, args.case)
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    cases = [c for c in CASES if args.rnc6_qq or c != "rnc6_qq"]
    for case in cases:
        times, hashes = [], []
        try:
            for _ in range(args.runs):
                done = subprocess.run(
                    [sys.executable, __file__, str(src), "--case", case],
                    capture_output=True, text=True, check=True,
                    timeout=TIMEOUT_S)
                record = json.loads(done.stdout.strip().splitlines()[-1])
                times.append(record["cpu_s"])
                hashes.append(record["hash"])
        except subprocess.TimeoutExpired:
            print(f"{case:30s} killed at {TIMEOUT_S} s", flush=True)
            continue
        shown = hashes[0] if len(set(hashes)) == 1 else ",".join(hashes)
        print(f"{case:30s} {statistics.median(times):8.3f} s  "
              f"[{min(times):.3f}-{max(times):.3f}]  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
