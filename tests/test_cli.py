"""Command-line interface: reports, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import sys
from itertools import product

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cidcurve
from cidcurve import Ideal, PolyRing, intersect
from cidcurve.cli import main
from cidcurve.orders import Block

ROOT = pathlib.Path(__file__).resolve().parent.parent
TC = str(ROOT / "inputs" / "twisted_cubic.ring")
RNC4 = str(ROOT / "inputs" / "rnc4.ring")
CUSP = str(ROOT / "inputs" / "cusp.germ")


def run_json(capsys, *argv):
    code = main(list(argv) + ["--output", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out or captured.err)


def test_cid_twisted_cubic(capsys):
    code, payload = run_json(capsys, "cid", "--input", TC, "--seed", "7")
    assert code == 0
    assert payload["version"] == "0.1.0"
    assert payload["command"] == "cid"
    assert payload["seed"] == 7
    assert payload["field"] == "QQ"
    assert payload["errors"] == []
    assert payload["result"]["cid"] == 2
    assert set(payload["result"]["routes"].values()) == {2}
    assert payload["checks"]["route_agreement"] is True
    witness = payload["result"]["witness"]
    assert witness["seed"] == 7
    assert all(witness["tests"].values())


def test_json_deterministic(capsys):
    _, first = run_json(capsys, "cid", "--input", TC, "--seed", "3")
    code = main(["cid", "--input", TC, "--seed", "3", "--output", "json"])
    second = capsys.readouterr().out
    assert code == 0
    assert json.dumps(first, indent=2, sort_keys=True) + "\n" == second


def test_seed_changes_witness(capsys):
    _, a = run_json(capsys, "construct-ci", "--input", TC, "--seed", "1")
    _, b = run_json(capsys, "construct-ci", "--input", TC, "--seed", "2")
    assert a["result"]["witness"]["forms"] != b["result"]["witness"]["forms"]


def test_genus_report(capsys):
    code, payload = run_json(capsys, "genus", "--input", TC)
    assert code == 0
    result = payload["result"]
    assert result["deg_X"] == 3
    assert result["deg_W"] == 1
    assert result["deg_Z"] == 4
    assert result["p_a_hilbert"] == 0
    assert all(payload["checks"].values())


def test_local_cusp(capsys):
    code, payload = run_json(capsys, "local", "--input", CUSP)
    assert code == 0
    result = payload["result"]
    assert result["delta"] == 1
    assert result["milnor"] == 2
    assert result["multiplicity"] == 2
    assert result["e_ramification"] == 1
    assert result["cid"] == 0
    assert payload["checks"]["multiplicities_match_direct"] is True


def test_local_field_override(capsys):
    # same file, characteristic-5 arithmetic
    code, payload = run_json(capsys, "local", "--input", CUSP,
                             "--field", "Fp:5")
    assert code == 0
    assert payload["field"] == "Fp(5)"


def test_gb_command(capsys):
    code, payload = run_json(capsys, "gb", "--input", TC, "--order", "lex")
    assert code == 0
    assert payload["result"]["order"] == "lex"
    assert len(payload["result"]["basis"]) == 3


def test_invariants_command(capsys):
    code, payload = run_json(capsys, "invariants", "--input", TC)
    assert code == 0
    result = payload["result"]
    assert result["degree"] == 3
    assert result["proj_dimension"] == 1
    assert result["arithmetic_genus"] == 0
    assert result["saturated"] is True


def test_ideal_op_quotient(tmp_path, capsys):
    path = tmp_path / "two.ring"
    path.write_text("ring/1 over QQ vars x y z\nideal A = x*y;\nideal B = x;\n")
    code, payload = run_json(capsys, "ideal-op", "--input", str(path),
                             "--op", "quotient", "--left", "A",
                             "--right", "B")
    assert code == 0
    assert payload["result"]["generators"] == ["y"]


def test_ideal_op_quotient_homogeneous(tmp_path, capsys):
    # homogeneous input: the quotient prints its monic reduced grevlex
    # basis (division of an elimination basis gave 1/2*x*z, 1/2*x*y)
    path = tmp_path / "hom.ring"
    path.write_text("ring/1 over QQ vars x y z\n"
                    "ideal A = x*y, x*z;\nideal B = 2*x + 3*y;\n")
    code, payload = run_json(capsys, "ideal-op", "--input", str(path),
                             "--op", "quotient", "--left", "A",
                             "--right", "B")
    assert code == 0
    assert payload["result"]["generators"] == ["x*z", "x*y"]


def test_ideal_op_saturate_past_seventy_steps(tmp_path, capsys):
    # (x^70*y - x^70) : x^infinity = (y - 1); iterated quotients need 71
    # steps for it
    path = tmp_path / "deep.ring"
    path.write_text("ring/1 over QQ vars x y\n"
                    "ideal A = x^70*y - x^70;\nideal B = x;\n")
    code, payload = run_json(capsys, "ideal-op", "--input", str(path),
                             "--op", "saturate", "--left", "A",
                             "--right", "B")
    assert code == 0
    assert payload["result"]["generators"] == ["y - 1"]


def test_genus_computes_no_block_basis(monkeypatch, capsys):
    # every colon on a homogeneous curve takes the weighted-grevlex
    # route; a Block-order basis here means a silent fallback to
    # elimination
    orders = []
    real = cidcurve.groebner.groebner_basis

    def spy(gens, order=cidcurve.GREVLEX, ring=None):
        orders.append(order)
        return real(gens, order, ring=ring)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cidcurve") and \
                getattr(module, "groebner_basis", None) is real:
            monkeypatch.setattr(module, "groebner_basis", spy)
    code, payload = run_json(capsys, "genus", "--input", RNC4)
    assert code == 0
    assert orders
    assert not [o for o in orders if isinstance(o, Block)]
    assert set(payload["result"]["cid_routes"].values()) == {6}


def test_error_records_carry_structured_data(tmp_path, capsys):
    # a line with an embedded point fails every double link
    ring = PolyRing(cidcurve.Field.rationals(), ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = ring.variables()
    mixed = intersect(Ideal(ring, [x1, x2]), Ideal(ring, [x0, x1**2, x3]))
    path = tmp_path / "embedded.ring"
    path.write_text("ring/1 over QQ vars x0 x1 x2 x3\nideal X = "
                    + ", ".join(str(g) for g in mixed.generators) + ";\n")
    code, payload = run_json(capsys, "genus", "--input", str(path),
                             "--max-attempts", "3")
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "NotGenericallyCI"
    assert record["failures"]["double_link"] == 3
    assert sum(record["failures"].values()) == 3
    assert "cap" not in record
    # the text report is unchanged: type and message only
    assert main(["genus", "--input", str(path), "--max-attempts", "3"]) == 2
    out = capsys.readouterr().out
    assert out.rstrip().splitlines()[-1].startswith(
        "error (NotGenericallyCI): every attempt failed")
    # a germ whose delta does not certify below the precision cap
    germ = tmp_path / "slow.germ"
    germ.write_text("germ/1 over QQ vars x y\n"
                    "branch a: x = t^4; y = t^6 + t^7\n")
    code, payload = run_json(capsys, "local", "--input", str(germ),
                             "--precision-cap", "16")
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "PrecisionCapExceeded"
    assert record["cap"] == 16
    assert "failures" not in record


def test_non_curve_exit_code(tmp_path, capsys):
    for gens in ("x0*x1, x0*x2", "x2, x3, x0*x1"):
        path = tmp_path / "bad.ring"
        path.write_text(f"ring/1 over QQ vars x0 x1 x2 x3\nideal X = {gens};\n")
        code, payload = run_json(capsys, "genus", "--input", str(path))
        assert code == 2
        assert payload["errors"][0]["type"] == "NotACurve"


def test_verify_ring(capsys):
    code, payload = run_json(capsys, "verify", "--input", TC)
    assert code == 0
    assert all(payload["checks"].values())
    assert any(k.startswith("witness_") for k in payload["checks"])


def test_verify_germ(capsys):
    code, payload = run_json(capsys, "verify", "--input", CUSP)
    assert code == 0
    assert payload["checks"]["multiplicities_match_direct"] is True


def test_missing_file_exit_code(capsys):
    code, payload = run_json(capsys, "cid", "--input", "no_such_file.ring")
    assert code == 1
    assert payload["errors"][0]["type"] == "FileNotFoundError"


def test_syntax_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("ring/1 over QQ vars x\nideal A = x +;\n")
    code, payload = run_json(capsys, "gb", "--input", str(path))
    assert code == 1
    assert payload["errors"][0]["type"] == "ParseError"
    # nesting far past the parser's bound is a ParseError, not a
    # RecursionError escaping the envelope
    deep = "(" * 3000 + "x" + ")" * 3000
    path.write_text(f"ring/1 over QQ vars x\nideal A = {deep};\n")
    code, payload = run_json(capsys, "gb", "--input", str(path))
    assert code == 1
    assert payload["errors"][0]["type"] == "ParseError"
    assert "nested deeper" in payload["errors"][0]["message"]


def test_math_precondition_exit_code(tmp_path, capsys):
    path = tmp_path / "sing.ring"
    path.write_text("ring/1 over QQ vars x y z\nideal X = x*x + y*y;\n")
    code, payload = run_json(capsys, "cid", "--input", str(path),
                             "--route", "smooth")
    assert code == 2
    assert payload["errors"][0]["type"] == "NotSmooth"


def test_wrong_input_kind(capsys):
    code, payload = run_json(capsys, "cid", "--input", CUSP)
    assert code == 1
    assert payload["errors"][0]["type"] == "InputError"


def test_unknown_flag_rejected(capsys):
    assert main(["cid", "--input", TC, "--frobnicate"]) == 1
    capsys.readouterr()


def test_unknown_command_rejected(capsys):
    assert main(["explode", "--input", TC]) == 1
    capsys.readouterr()


def test_text_output(capsys):
    code = main(["invariants", "--input", TC])
    out = capsys.readouterr().out
    assert code == 0
    assert "result.degree: 3" in out
    assert "field: QQ" in out


def test_precision_cap_below_first_order(capsys):
    # caps too small to see any positive order of the cusp t^2, t^3
    for cap in ("0", "1", "2"):
        code, payload = run_json(capsys, "local", "--input", CUSP,
                                 "--precision-cap", cap)
        assert code == 2
        (record,) = payload["errors"]
        assert record["type"] == "PrecisionCapExceeded"
        assert record["cap"] == int(cap)


def test_bad_order_is_an_input_error(capsys):
    # twisted_cubic.ring has four variables, so block(k) needs 0 < k < 4
    for order in ("foo", "block(x)", "block(0)", "block(4)", "block(-1)"):
        code, payload = run_json(capsys, "gb", "--input", TC,
                                 "--order", order)
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "InputError"
    code, payload = run_json(capsys, "gb", "--input", TC,
                             "--order", "block(3)")
    assert code == 0
    assert payload["result"]["order"] == "block(3)"


def test_eliminate_every_variable_is_an_input_error(capsys):
    code, payload = run_json(capsys, "ideal-op", "--input", TC,
                             "--op", "eliminate", "--vars", "x0,x1,x2,x3")
    assert code == 1
    assert payload["errors"][0]["type"] == "InputError"


def test_max_attempts_below_one_is_an_input_error(capsys):
    for attempts in ("0", "-2"):
        code, payload = run_json(capsys, "genus", "--input", TC,
                                 "--max-attempts", attempts)
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "InputError"


def _combine(terms):
    """{k: c} of a sum of c*t^k terms, cancelled terms dropped."""
    out = {}
    for c, k in terms:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in sorted(out.items()) if c}


_coordinate = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 8)),
    min_size=1, max_size=2,
).map(_combine)
# A reparametrization keeps the order of each coordinate, so branches
# with different (ord x, ord y) are different curves; two copies of one
# curve would meet in a curve, which is slow to measure.
_branches = st.lists(
    st.tuples(_coordinate, _coordinate), min_size=1, max_size=2,
    unique_by=lambda b: tuple(min(p, default=0) for p in b),
)


def _coordinate_text(poly):
    return " + ".join(f"{c}*t^{k}" for k, c in poly.items()) or "0"


def _header_names(draw, names):
    """names, or now and then names with one replaced by an invalid or
    repeated name: a header that names no ring must still come back as a
    typed envelope."""
    if draw(st.sampled_from(range(5))):
        return names
    k = draw(st.integers(0, len(names) - 1))
    bad = draw(st.sampled_from(("1x", "2y", "x-", "_z", "x.y", names[k - 1])))
    return names[:k] + (bad,) + names[k + 1:]


# no explain phase: on a failing draw it re-runs variants for minutes
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))
@given(branches=_branches, cap=st.integers(-2, 48),
       names=st.composite(_header_names)(("x", "y")))
def test_local_envelope_property(tmp_path_factory, branches, cap, names):
    lines = [f"germ/1 over QQ vars {' '.join(names)}"]
    for i, (xs, ys) in enumerate(branches):
        lines.append(f"branch b{i}: x = {_coordinate_text(xs)}; "
                     f"y = {_coordinate_text(ys)}")
    path = tmp_path_factory.mktemp("germ") / "drawn.germ"
    path.write_text("\n".join(lines) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(["local", "--input", str(path), "--precision-cap",
                     str(cap), "--output", "json"])
    assert code in (0, 1, 2)
    payload = json.loads(out.getvalue())
    assert payload["command"] == "local"
    assert (code == 0) == (not payload["errors"])


_RING_ORDERS = (
    ["grevlex", "lex"] + [f"block({k})" for k in range(-1, 5)]
    + ["junk", "block(x)"]
)
_RING_OPS = ("sum", "product", "intersect", "quotient", "radical",
             "eliminate")


@st.composite
def _ring_case(draw):
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    exponents = [e for e in product(range(3), repeat=len(names))
                 if sum(e) <= 2]
    names = _header_names(draw, names)

    def poly():
        terms = draw(st.dictionaries(
            st.sampled_from(exponents), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=3))
        return " + ".join(
            f"{c}" + "".join(f"*{v}^{k}" for v, k in zip(names, e) if k)
            for e, c in sorted(terms.items())
        )

    def ideal():
        return ", ".join(poly() for _ in range(draw(st.integers(1, 3))))

    drop = draw(st.lists(st.sampled_from(names + ("w",)), max_size=3))
    return (names, ideal(), ideal(), draw(st.sampled_from(_RING_ORDERS)),
            draw(st.sampled_from(_RING_OPS)), ",".join(drop))


def _envelope_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv + ["--output", "json"])
    payload = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    assert payload["command"] == argv[0]
    assert (code == 0) == (not payload["errors"])
    return code, payload


@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))
@given(case=_ring_case())
def test_ring_envelope_property(tmp_path_factory, case):
    names, left, right, order, op, drop = case
    path = tmp_path_factory.mktemp("ring") / "drawn.ring"
    path.write_text(f"ring/1 over QQ vars {' '.join(names)}\n"
                    f"ideal A = {left};\nideal B = {right};\n")
    _envelope_of(["gb", "--input", str(path), "--order", order])
    argv = ["ideal-op", "--input", str(path), "--op", op,
            "--left", "A", "--right", "B"]
    _envelope_of(argv + (["--vars", drop] if op == "eliminate" else []))


@st.composite
def _curve_case(draw):
    plane = draw(st.booleans())
    names = ("x", "y", "z") if plane else ("x0", "x1", "x2", "x3")

    def form(degree):
        monomials = [e for e in product(range(degree + 1), repeat=len(names))
                     if sum(e) == degree]
        terms = draw(st.dictionaries(
            st.sampled_from(monomials), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=4))
        return " + ".join(
            f"{c}" + "".join(f"*{v}^{k}" for v, k in zip(names, e) if k)
            for e, c in sorted(terms.items()))

    if plane:
        gens = [form(draw(st.integers(1, 3)))
                for _ in range(draw(st.integers(1, 2)))]
    elif draw(st.booleans()):
        gens = [form(draw(st.integers(1, 2)))
                for _ in range(draw(st.integers(2, 3)))]
    else:
        # the product of two line ideals: skew, meeting or equal lines
        first, second = ([form(1), form(1)] for _ in range(2))
        gens = [f"({u})*({v})" for u in first for v in second]
    field = draw(st.sampled_from(("QQ", "Fp:32003")))
    route = draw(st.sampled_from(("auto", "direct", "smooth", "lci", "aci")))
    transversal = draw(st.booleans())
    return names, gens, field, route, transversal, draw(st.integers(0, 9))


@settings(max_examples=80, deadline=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))
@given(case=_curve_case())
def test_curve_envelope_property(tmp_path_factory, case):
    # drawn forms are mostly not curves, or not general enough to link:
    # every outcome must still be a typed envelope
    names, gens, field, route, transversal, seed = case
    path = tmp_path_factory.mktemp("curve") / "drawn.ring"
    path.write_text(f"ring/1 over QQ vars {' '.join(names)}\n"
                    f"ideal X = {', '.join(gens)};\n")
    common = ["--input", str(path), "--field", field, "--seed", str(seed),
              "--max-attempts", "3"]
    _envelope_of(["genus"] + common)
    code, payload = _envelope_of(["cid"] + common + ["--route", route]
                                 + (["--transversal"] if transversal else []))
    if code == 0:
        # a length is never negative
        assert min(payload["result"]["routes"].values()) >= 0


def test_bad_header_names_are_parse_errors(tmp_path, capsys):
    # a header name the ring refuses is a ParseError at the header line,
    # never a raw ValueError
    cases = [
        ("gb", "bad.ring", "ring/1 over QQ vars 1x y z\nideal A = y;\n",
         "bad variable name '1x'"),
        ("gb", "dup.ring", "ring/1 over QQ vars x y x\nideal A = y;\n",
         "duplicate variable name 'x'"),
        ("local", "bad.germ", "# a comment\ngerm/1 over QQ vars x 2y\n"
         "branch a: x = t^2\n", "bad variable name '2y'"),
        ("local", "dup.germ", "germ/1 over QQ vars y y\n"
         "branch a: y = t\n", "duplicate variable name 'y'"),
    ]
    for command, filename, text, reason in cases:
        path = tmp_path / filename
        path.write_text(text)
        code, payload = run_json(capsys, command, "--input", str(path))
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "ParseError"
        line = 2 if text.startswith("#") else 1
        assert record["message"] == f"{reason} (line {line}, column 1)"


def test_reparametrized_branch_is_not_primitive(tmp_path, capsys):
    # y = x^2 traced twice: the attained orders are the even ones, so no
    # gap-free run certifies below any cap, and the branch meets x = 0
    # with length 1 against its order 2
    path = tmp_path / "twice.germ"
    path.write_text("germ/1 over QQ vars x y\n"
                    "branch a: x = t^2 + t^3; y = t^4 + 2*t^5 + t^6\n")
    code, payload = run_json(capsys, "local", "--input", str(path))
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "NotPrimitive"
    # a primitive branch cut short by the cap is still reported as such
    code, payload = run_json(capsys, "local", "--input", CUSP,
                             "--precision-cap", "3")
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "PrecisionCapExceeded"
    assert record["cap"] == 3
