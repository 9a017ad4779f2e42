"""Seeded job lists for the cidcurve benchmark.

A job is one `cidcurve` command line plus the text of its input file and
the closed-form answer the oracle checks it against.  The workload seed
picks only the witness `--seed` values, the coefficients of the
complete-intersection curves, the line slopes and the germ `ci` draws;
the curve families and their sizes are fixed, so every seed asks for
comparable work.

Why these workloads:

- link_qq: curves over QQ through genus/verify/cid.  Groebner's
  fraction-free path and the block-elimination colon do most of the
  work; RNC5 `verify` is the largest instance.
- link_fp: the same curves over F_32003 (no transversal job, which needs
  characteristic zero).  Coefficient growth disappears, so a gain in QQ
  coefficient handling should move link_qq and not this one.
- germ: `local` on plane and space germs.  The germs layer and the affine
  intersect/eliminate/local_vdim_origin work dominate; the homogeneous
  colon is bypassed.
- reject: inputs that break a stated precondition.  Exercises the linkage
  redraw and rejection path, the germs precision cap and the error
  envelope, which no valid job reaches.

RNC6 is left out: one `genus` job over F_p took 86 s on a 2-core host,
too long to repeat in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

FP = "Fp:32003"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple      # CLI arguments without `--input <path>` and `--output`
    filename: str
    text: str
    expect: dict     # closed-form answer, see oracle.check
    largest: bool = False


# --- polynomial text ---------------------------------------------------


def _monomial(names, exps):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def _random_form(rng, names, degree):
    """Dense form of the given degree with coefficients in 1..50."""
    terms = []
    for combo in combinations_with_replacement(range(len(names)), degree):
        exps = [0] * len(names)
        for i in combo:
            exps[i] += 1
        terms.append(f"{rng.randint(1, 50)}*{_monomial(names, exps)}")
    return " + ".join(terms)


def _ring_text(names, gens, comment=""):
    head = f"# {comment}\n" if comment else ""
    return (f"{head}ring/1 over QQ vars {' '.join(names)}\n"
            f"ideal X = {', '.join(gens)};\n")


def _germ_text(names, branches, ideal=None, ci=None):
    lines = [f"germ/1 over QQ vars {' '.join(names)}"]
    for label, coords in branches:
        body = "; ".join(f"{v} = {p}" for v, p in zip(names, coords) if p)
        lines.append(f"branch {label}: {body}")
    if ideal is not None:
        lines.append(f"ideal: {', '.join(ideal)};")
    if ci is not None:
        lines.append(f"ci: {', '.join(ci)};")
    return "\n".join(lines) + "\n"


P3 = ("x0", "x1", "x2", "x3")


def _rnc_gens(n):
    x = [f"x{k}" for k in range(n + 1)]
    return x, [f"{x[i]}*{x[j]} - {x[i + 1]}*{x[j - 1]}"
               for i in range(n + 1) for j in range(i + 2, n + 1)]


# --- projective curves -------------------------------------------------


def _curve_expect(deg_x, p_a, degrees):
    """Closed forms for a curve of degree deg_x and arithmetic genus p_a
    linked by a complete intersection of the given degrees:
    deg W = prod(degrees) - deg X and, from 2 p_a - 2 = (sigma - 2) deg X
    - cid, cid = (sigma - 2) deg X - 2 p_a + 2."""
    sigma = sum(d - 1 for d in degrees)
    deg_z = 1
    for d in degrees:
        deg_z *= d
    return {"kind": "curve", "deg_X": deg_x, "p_a": p_a,
            "deg_W": deg_z - deg_x,
            "cid": (sigma - 2) * deg_x - 2 * p_a + 2}


def _rnc_expect(n):
    return {"kind": "curve", "deg_X": n, "p_a": 0,
            "deg_W": 2 ** (n - 1) - n, "cid": n * (n - 3) + 2}


def _ci_expect(a, b):
    # cid = 0 and p_a = 1 + ab(a+b-4)/2
    return {"kind": "curve", "deg_X": a * b,
            "p_a": 1 + a * b * (a + b - 4) // 2, "deg_W": 0, "cid": 0}


def _link_jobs(rng, field_flag):
    """Job list shared by link_qq (field_flag None) and link_fp."""
    field = () if field_flag is None else ("--field", field_flag)
    jobs = []

    def seed():
        return str(rng.randrange(1, 1 << 30))

    def add(name, command, filename, text, expect, extra=(), largest=False):
        argv = (command, "--seed", seed()) + tuple(extra) + field
        jobs.append(Job(name, argv, filename, text, expect, largest))

    tc_names, tc_gens = _rnc_gens(3)
    tc_text = _ring_text(tc_names, tc_gens, "twisted cubic")
    # fifteen witness seeds put the job median inside this cluster of
    # similar jobs, so it does not hinge on a few witness draws
    for k in range(15):
        add(f"genus:twisted_cubic:{k}", "genus", "twisted_cubic.ring",
            tc_text, _rnc_expect(3))
    rnc4_text = _ring_text(*_rnc_gens(4))
    for k in range(3):
        add(f"genus:rnc4:{k}", "genus", "rnc4.ring", rnc4_text,
            _rnc_expect(4))
    add("verify:rnc5", "verify", "rnc5.ring", _ring_text(*_rnc_gens(5)),
        _rnc_expect(5), largest=True)

    for a, b in ((2, 2), (2, 3), (3, 3)):
        gens = [_random_form(rng, P3, a), _random_form(rng, P3, b)]
        add(f"genus:ci{a}{b}", "genus", f"ci{a}{b}.ring",
            _ring_text(P3, gens), _ci_expect(a, b))

    # smooth rational quartic (s^4, s^3 t, s t^3, t^4): degree 4, genus 0,
    # linked by two cubics
    quartic = ["x0*x3 - x1*x2", "x1^3 - x0^2*x2", "x2^3 - x1*x3^2",
               "x0*x2^2 - x1^2*x3"]
    add("genus:rational_quartic", "genus", "quartic.ring",
        _ring_text(P3, quartic), _curve_expect(4, 0, (3, 3)))

    # two skew lines: a seeded linear change of (x0, x1) and (x2, x3);
    # slopes with a*c != 1 and b*d != 1 keep the lines disjoint, so the
    # ideal product is their intersection; degree 2, genus -1
    a, b, c, d = (rng.randint(2, 40) for _ in range(4))
    lin1 = (f"x0 - {a}*x2", f"x1 - {b}*x3")
    lin2 = (f"x2 - {c}*x0", f"x3 - {d}*x1")
    skew = [f"({u})*({v})" for u in lin1 for v in lin2]
    add("genus:skew_lines", "genus", "skew.ring", _ring_text(P3, skew),
        _curve_expect(2, -1, (2, 2)))

    # plane nodal cubic inside P^3: a (3,1) complete intersection
    nodal = ["x1^2*x2 - x0^3 - x0^2*x2", "x3"]
    add("cid:nodal_cubic", "cid", "nodal.ring", _ring_text(P3, nodal),
        {"kind": "cid", "cid": 0}, extra=("--route", "direct"))

    plane = ("x", "y", "z")
    for deg in (3, 4, 5, 6):
        text = _ring_text(plane, [f"x^{deg} + y^{deg} + z^{deg}"])
        # p_a = (d-1)(d-2)/2; in the plane Z = X, so cid = 0
        add(f"genus:fermat{deg}", "genus", f"fermat{deg}.ring", text,
            {"kind": "curve", "deg_X": deg, "p_a": (deg - 1) * (deg - 2) // 2,
             "deg_W": 0, "cid": 0})

    if field_flag is None:
        add("cid:twisted_cubic:transversal", "cid", "twisted_cubic.ring",
            tc_text, {"kind": "cid", "cid": 2}, extra=("--transversal",))
    return jobs


# --- germs -------------------------------------------------------------


def _germ_jobs(rng):
    jobs = []

    def add(name, text, expect, largest=False):
        argv = ("local", "--seed", str(rng.randrange(1, 1 << 30)))
        jobs.append(Job(name, argv, f"{name}.germ", text, expect, largest))

    # plane branch (t^a, t^b), gcd(a, b) = 1: delta = (a-1)(b-1)/2,
    # mu = 2 delta
    for a, b in ((2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7), (7, 9),
                 (8, 11), (9, 11)):
        delta = (a - 1) * (b - 1) // 2
        text = _germ_text(("x", "y"), [("a", (f"t^{a}", f"t^{b}"))],
                          ideal=[f"y^{a} - x^{b}"])
        add(f"branch_{a}_{b}", text,
            {"kind": "germ", "delta": delta, "milnor": 2 * delta},
            largest=(a, b) == (8, 11))

    # d concurrent lines y = s_i x with distinct seeded slopes:
    # delta = d(d-1)/2, mu = (d-1)^2
    for d in range(3, 11):
        slopes = rng.sample(range(1, 60), d)
        branches = [(f"l{i}", ("t", f"{s}*t")) for i, s in enumerate(slopes)]
        ideal = ["*".join(f"(y - {s}*x)" for s in slopes)]
        add(f"lines_{d}", _germ_text(("x", "y"), branches, ideal=ideal),
            {"kind": "germ", "delta": d * (d - 1) // 2,
             "milnor": (d - 1) ** 2})

    # two cusps with a common tangent, (t^2, c1 t^3) and (t^2, c2 t^3)
    # with c1^2 != c2^2: each has delta 1 and they meet with
    # multiplicity 6, so delta = 8 and mu = 2*8 - 2 + 1 = 15
    c1, c2 = rng.sample(range(1, 30), 2)
    text = _germ_text(
        ("x", "y"), [("a", ("t^2", f"{c1}*t^3")), ("b", ("t^2", f"{c2}*t^3"))],
        ideal=[f"(y^2 - {c1 * c1}*x^3)*(y^2 - {c2 * c2}*x^3)"])
    add("tangent_cusps", text, {"kind": "germ", "delta": 8, "milnor": 15})

    # (t^4, t^6 + t^7): semigroup <4, 6, 13>, delta = 8, mu = 16
    text = _germ_text(("x", "y"), [("a", ("t^4", "t^6 + t^7"))],
                      ideal=["(y^2 - x^3)^2 - 4*x^5*y - x^7"])
    add("branch_4_6_7", text, {"kind": "germ", "delta": 8, "milnor": 16})

    # space monomial curve (t^3, t^4, t^5): semigroup gaps {1, 2}
    text = _germ_text(("x", "y", "z"), [("a", ("t^3", "t^4", "t^5"))],
                      ideal=["x*z - y^2", "x^3 - y*z", "x^2*y - z^2"])
    add("space_3_4_5", text, {"kind": "germ", "delta": 2, "milnor": 4})

    # the three coordinate axes in 3-space: delta = r - 1 = 2,
    # mu = 2 delta - r + 1 = 2
    axes = [("a", ("t", "", "")), ("b", ("", "t", "")), ("c", ("", "", "t"))]
    text = _germ_text(("x", "y", "z"), axes, ideal=["x*y", "x*z", "y*z"])
    add("axes_3", text, {"kind": "germ", "delta": 2, "milnor": 2})
    return jobs


# --- rejections --------------------------------------------------------


def _reject_jobs(rng):
    """Each input breaks one stated precondition.  Exit code 1 marks an
    input or syntax error, 2 a failed mathematical precondition."""
    jobs = []

    def add(name, argv, filename, text, code, largest=False):
        argv = (argv[0], "--seed", str(rng.randrange(1, 1 << 30))) + argv[1:]
        jobs.append(Job(name, argv, filename, text,
                        {"kind": "reject", "code": code}, largest))

    add("non_primitive_branch", ("local",), "nonprim.germ",
        _germ_text(("x", "y"), [("a", ("t^2", "t^4 + t^6"))]), 2,
        largest=True)
    # two points of P^3: not a curve, every double link fails
    add("points", ("genus",), "points.ring",
        _ring_text(P3, ["x2", "x3", "x0*x1"]), 2)
    add("plane_plus_line", ("genus",), "plane_line.ring",
        _ring_text(P3, ["x0*x1", "x0*x2"]), 2)
    add("double_line", ("genus",), "double_line.ring",
        _ring_text(P3, ["x0^2", "x0*x1", "x1^2"]), 2)
    add("non_homogeneous", ("genus",), "nonhom.ring",
        _ring_text(P3, ["x0*x2 - x1", "x1*x3 - x2^2", "x0*x3 - x1*x2"]), 2)
    add("surface", ("genus",), "surface.ring",
        _ring_text(P3, ["x0*x3 - x1*x2"]), 1)
    nodal = _ring_text(P3, ["x1^2*x2 - x0^3 - x0^2*x2", "x3"])
    add("smooth_route_on_nodal", ("cid", "--route", "smooth"), "nodal.ring",
        nodal, 2)
    tc_names, tc_gens = _rnc_gens(3)
    add("transversal_over_fp", ("cid", "--transversal", "--field", FP),
        "twisted_cubic.ring", _ring_text(tc_names, tc_gens), 2)
    add("ci_outside_ideal", ("local",), "ci_out.germ",
        _germ_text(("x", "y"), [("a", ("t^2", "t^3"))],
                   ideal=["y^2 - x^3"], ci=["y^2 - x^2"]), 1)
    # 3000 nested parentheses: a syntax-level input that must come back
    # as a typed error envelope
    depth = 3000
    add("deep_parentheses", ("gb",), "deep.ring",
        f"ring/1 over QQ vars x y z\nideal X = {'(' * depth}x{')' * depth};\n",
        1)
    return jobs


WORKLOADS = {
    "link_qq": lambda rng: _link_jobs(rng, None),
    "link_fp": lambda rng: _link_jobs(rng, FP),
    "germ": _germ_jobs,
    "reject": _reject_jobs,
}


def build(workload: str, seed: int):
    """The job list of a workload; the same seed gives the same jobs."""
    jobs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    names = [job.name for job in jobs]
    if len(set(names)) != len(names) or sum(j.largest for j in jobs) != 1:
        raise ValueError(f"malformed job list for {workload}")
    return jobs
