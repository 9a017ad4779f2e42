"""Golden outputs: exact stdout/stderr bytes and exit code of `cli.main`.

Each job's recorded output lives in `tests/golden/<job>.txt`.  A change
that is meant to keep behaviour must keep every byte.  To record the
files for a new job (never to paper over a changed byte), run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from cidcurve.cli import IDEAL_OPS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FP = "Fp:32003"

# written by the test: a zero-dimensional affine ideal A and a
# homogeneous ideal B with an irrelevant component
TWO_IDEALS = (
    "ring/1 over QQ vars x y z\n"
    "ideal A = x^3 - y*z, y^2 - x*z, z^3 - 1;\n"
    "ideal B = x^2*z - y^3, x*y*z, x^4;\n"
)
# plane nodal cubic in P^3: the singular branch of the saturation route
NODAL = "ring/1 over QQ vars x0 x1 x2 x3\nideal X = x1^2*x2 - x0^3 - x0^2*x2, x3;\n"
# the twisted cubic's generators times each variable: the same curve,
# presented by an unsaturated ideal
DIRTY_CUBIC = (
    "ring/1 over QQ vars x0 x1 x2 x3\nideal X = "
    + ", ".join(f"({g})*x{i}" for g in ("x2^2 - x1*x3", "x1^2 - x0*x2",
                                       "x0*x3 - x1*x2") for i in range(4))
    + ";\n"
)
# homogeneous: P saturated by (x) changes in three colon steps, down to
# the point (1:0:0); the conic C, presented with a redundant multiple,
# does not change
HOMOGENEOUS = (
    "ring/1 over QQ vars x y z\n"
    "ideal P = x*y^2 - x^2*z, x^2*y;\n"
    "ideal C = y^2 - x*z, x*y^2 - x^2*z;\n"
    "ideal L = x;\n"
)
# germs whose delta glues branches: five concurrent lines over QQ (one
# slope a fraction), three over F_p, and the coordinate axes in 3-space
LINES5 = (
    "germ/1 over QQ vars x y\n"
    + "".join(f"branch l{i}: x = t; y = {s}*t\n"
              for i, s in enumerate(("1", "-2", "3", "1/2", "5")))
    + "ideal: (y - x)*(y + 2*x)*(y - 3*x)*(2*y - x)*(y - 5*x);\n"
)
LINES3_FP = (
    "germ/1 over Fp(32003) vars x y\n"
    "branch a: x = t; y = 7*t\n"
    "branch b: x = t; y = 32000*t\n"
    "branch c: x = 2*t; y = t\n"
    "ideal: (y - 7*x)*(y + 3*x)*(2*y - x);\n"
)
AXES3 = (
    "germ/1 over QQ vars x y z\n"
    "branch a: x = t\n"
    "branch b: y = t\n"
    "branch c: z = t\n"
    "ideal: x*y, x*z, y*z;\n"
)
# a smooth complete intersection of two cubics in P^3: the residual is
# empty, and so is the witness Jacobian scheme on the curve
CI33 = (
    "ring/1 over QQ vars x0 x1 x2 x3\n"
    "ideal X = x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2, "
    "x0^3 + 2*x1^3 + 3*x2^3 + 4*x3^3 + x1*x2*x3;\n"
)
WRITTEN = {"two.ring": TWO_IDEALS, "nodal.ring": NODAL, "ci33.ring": CI33,
           "dirty_cubic.ring": DIRTY_CUBIC, "homogeneous.ring": HOMOGENEOUS,
           "lines5.germ": LINES5, "lines3_fp.germ": LINES3_FP,
           "axes3.germ": AXES3}


def _jobs():
    """(name, argv without --output, output modes); `{dir}` in an argv
    entry is the directory holding the written fixtures."""
    jobs = []

    def add(name, argv, modes=("json",)):
        jobs.append((name, tuple(argv), modes))

    for curve, seeds in (("twisted_cubic", (0, 7)), ("rnc4", (0,))):
        path = str(INPUTS / f"{curve}.ring")
        for tag, field in (("qq", ()), ("fp", ("--field", FP))):
            for seed in seeds:
                for command in ("cid", "genus", "verify", "construct-ci",
                                "invariants"):
                    modes = ("json", "text") if command in ("genus",
                                                            "verify") \
                        else ("json",)
                    add(f"{command}-{curve}-{tag}-s{seed}",
                        (command, "--input", path, "--seed", str(seed))
                        + field, modes)
            for order in ("grevlex", "lex", "block(1)"):
                add(f"gb-{curve}-{tag}-{order}",
                    ("gb", "--input", path, "--order", order) + field)

    tc = str(INPUTS / "twisted_cubic.ring")
    for tag, field in (("qq", ()), ("fp", ("--field", FP))):
        for route in ("auto", "direct", "smooth", "lci", "aci"):
            add(f"cid-route-{route}-{tag}",
                ("cid", "--input", tc, "--seed", "7", "--route", route)
                + field)
        add(f"cid-transversal-{tag}",
            ("cid", "--input", tc, "--seed", "7", "--transversal") + field)
    # a transversal witness in P^4: the singular-locus test reads the
    # 3 x 3 Jacobian minors of Z on a residual curve W of degree 4
    add("cid-transversal-rnc4-qq",
        ("cid", "--input", str(INPUTS / "rnc4.ring"), "--seed", "0",
         "--transversal"))
    # in P^5 the first 4 x 4 minor of Z mod I_W already bounds the
    # singular locus, so most minors are never drawn
    add("cid-transversal-rnc5-qq",
        ("cid", "--input", str(INPUTS / "rnc5.ring"), "--seed", "0",
         "--transversal"))
    nodal = "{dir}/nodal.ring"
    for route in ("direct", "smooth", "lci"):
        add(f"cid-nodal-{route}",
            ("cid", "--input", nodal, "--route", route))
    add("genus-ci33-qq-s0",
        ("genus", "--input", "{dir}/ci33.ring", "--seed", "0"),
        ("json", "text"))
    add("invariants-dirty-cubic",
        ("invariants", "--input", "{dir}/dirty_cubic.ring"))

    for germ in ("cusp", "node"):
        for command in ("local", "verify"):
            add(f"{command}-{germ}",
                (command, "--input", str(INPUTS / f"{germ}.germ")),
                ("json", "text"))
    for germ in ("lines5", "lines3_fp", "axes3"):
        add(f"local-{germ}",
            ("local", "--input", f"{{dir}}/{germ}.germ", "--seed", "3"),
            ("json", "text"))

    # each operation is given only the operand it reads
    operands = {"right": ("--right", "B"), "vars": ("--vars", "x"), None: ()}
    for op, (_, operand) in IDEAL_OPS.items():
        left = "B" if op == "saturate-irrelevant" else "A"
        add(f"ideal-op-{op}",
            ("ideal-op", "--input", "{dir}/two.ring", "--op", op,
             "--left", left) + operands[operand])
    # over F_3, z^3 - 1 = (z - 1)^3 takes the squarefree part's p-th
    # root descent; over F_7 every univariate generator is squarefree
    for p in (3, 7):
        add(f"ideal-op-radical-f{p}",
            ("ideal-op", "--input", "{dir}/two.ring", "--op", "radical",
             "--left", "A", "--field", f"Fp:{p}"))
    for tag, left in (("changes", "P"), ("unchanged", "C")):
        add(f"ideal-op-saturate-{tag}",
            ("ideal-op", "--input", "{dir}/homogeneous.ring", "--op",
             "saturate", "--left", left, "--right", "L"))
    return jobs


CASES = [(f"{name}.{mode}", argv, mode)
         for name, argv, modes in _jobs() for mode in modes]


def _run(argv, mode, fixture_dir):
    argv = [a.replace("{dir}", str(fixture_dir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--output", mode])
    return (f"exit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def _write_fixtures(directory):
    for name, text in WRITTEN.items():
        (directory / name).write_text(text)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_fixtures(directory)
    return directory


@pytest.mark.parametrize("name,argv,mode", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, mode, fixture_dir):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert _run(argv, mode, fixture_dir) == expected


def _record():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_fixtures(directory)
        for name, argv, mode in CASES:
            target = GOLDEN / f"{name}.txt"
            if not target.exists():
                target.write_text(_run(argv, mode, directory))
                print(f"recorded {target.name}", file=sys.stderr)


if __name__ == "__main__":
    _record()
