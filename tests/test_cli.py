"""Command-line interface: reports, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import sys
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cidcurve
from cidcurve import Ideal, PolyRing, intersect
from cidcurve.cli import main
from cidcurve.linkage import TEST_NAMES
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


def test_gb_exponent_past_any_fixed_width(tmp_path, capsys):
    # a monomial wider than any fixed exponent field: the packing is
    # sized from the input, so the basis prints exactly as it always has
    path = tmp_path / "wide.ring"
    path.write_text("ring/1 over QQ vars x y\n"
                    "ideal X = x^100000000 - y, y^2;\n")
    code = main(["gb", "--input", str(path), "--output", "json"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{\n  "checks": {},\n  "command": "gb",\n  "errors": [],\n'
        '  "field": "QQ",\n  "result": {\n    "basis": [\n'
        '      "y^2",\n      "x^100000000 - y"\n    ],\n'
        '    "ideal": "X",\n    "is_unit": false,\n'
        '    "order": "grevlex"\n  },\n  "seed": 0,\n'
        '  "version": "0.1.0"\n}\n')


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


def test_ideal_op_quotient_by_a_constant_prints_the_reduced_basis(
        tmp_path, capsys):
    # (T : 2) = T, printed from its monic reduced grevlex basis like every
    # quotient, the basis the intersection with (2) prints too
    path = tmp_path / "unit.ring"
    path.write_text("ring/1 over QQ vars x y z\n"
                    "ideal T = x*y*z - y^3, y^2*z - x*z^2;\nideal K = 2;\n")
    printed = {}
    for op in ("quotient", "intersect"):
        code, payload = run_json(capsys, "ideal-op", "--input", str(path),
                                 "--op", op, "--left", "T", "--right", "K")
        assert code == 0
        printed[op] = payload["result"]["generators"]
    assert printed["quotient"] == printed["intersect"] == [
        "y^2*z - x*z^2", "y^3 - x*y*z"]


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
    real_chain = cidcurve.ideals._chain_basis

    def spy(gens, order=cidcurve.GREVLEX, ring=None):
        orders.append(order)
        return real(gens, order, ring=ring)

    def spy_chain(a, order, target=None, bound=None):
        orders.append(order)
        return real_chain(a, order, target, bound)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cidcurve") and \
                getattr(module, "groebner_basis", None) is real:
            monkeypatch.setattr(module, "groebner_basis", spy)
    monkeypatch.setattr(cidcurve.ideals, "_chain_basis", spy_chain)
    code, payload = run_json(capsys, "genus", "--input", RNC4)
    assert code == 0
    assert orders
    assert not [o for o in orders if isinstance(o, Block)]
    assert set(payload["result"]["cid_routes"].values()) == {6}


def test_error_records_carry_structured_data(tmp_path, capsys):
    # a line with an embedded point fails the double link, which no
    # other draw can pass
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
    assert record["failures"]["double_link"] == 1
    assert sum(record["failures"].values()) == 1
    assert "cap" not in record
    # the text report is unchanged: type and message only
    assert main(["genus", "--input", str(path), "--max-attempts", "3"]) == 2
    out = capsys.readouterr().out
    assert out.rstrip().splitlines()[-1].startswith(
        "error (NotGenericallyCI): the double-link test failed")
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


def test_non_reduced_curve_exit_code(tmp_path, capsys):
    # a double line is rejected as not generically reduced after one draw
    path = tmp_path / "double_line.ring"
    path.write_text("ring/1 over QQ vars x0 x1 x2 x3\n"
                    "ideal X = x0^2, x0*x1, x1^2;\n")
    code, payload = run_json(capsys, "genus", "--input", str(path))
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "NotGenericallyReduced"
    assert record["failures"] == {
        name: int(name == "reduced_along_input") for name in TEST_NAMES}


def test_verify_ring(capsys):
    code, payload = run_json(capsys, "verify", "--input", TC)
    assert code == 0
    assert all(payload["checks"].values())
    assert any(k.startswith("witness_") for k in payload["checks"])


def test_verify_germ(capsys):
    code, payload = run_json(capsys, "verify", "--input", CUSP)
    assert code == 0
    assert payload["checks"]["multiplicities_match_direct"] is True


def test_verify_exits_2_naming_the_failed_checks(monkeypatch, capsys):
    # a failed report check is no error for `genus`, but `verify` exits
    # 2 with a CheckFailed error that names it
    monkeypatch.setattr(cidcurve.discrepancy, "_linkage_genus_holds",
                        lambda *args: False)
    code, payload = run_json(capsys, "genus", "--input", TC)
    assert code == 0
    assert payload["checks"]["peskine_szpiro"] is False
    assert payload["errors"] == []
    code, payload = run_json(capsys, "verify", "--input", TC)
    assert code == 2
    assert payload["checks"]["peskine_szpiro"] is False
    assert payload["errors"] == [{"type": "CheckFailed",
                                  "message": "failed checks: peskine_szpiro"}]


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


def test_zero_denominator_is_a_parse_error(tmp_path, capsys):
    # 1/0 is a malformed literal, not a failed computation: exit 1 and a
    # ParseError, from a ring file and from a germ branch alike
    cases = [
        ("gb", "zero.ring", "ring/1 over QQ vars x y\nideal A = x + 1/0*y;\n"),
        ("local", "zero.germ", "germ/1 over QQ vars x y\n"
         "branch a: x = t^2; y = 1/0*t^3\n"),
    ]
    for command, filename, text in cases:
        path = tmp_path / filename
        path.write_text(text)
        code, payload = run_json(capsys, command, "--input", str(path))
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "ParseError"
        assert record["message"].startswith(
            "zero denominator in coefficient (line 1, column ")


def test_denominator_zero_mod_p_is_a_parse_error(tmp_path, capsys):
    # 1/7 over F_7 is as malformed as 1/0: exit 1 and a ParseError at
    # the denominator, anchored at its statement's line
    cases = [
        ("gb", "zero.ring", "ring/1 over Fp(7) vars x y\nideal A = 1/7*y;\n",
         "'1/7*y'"),
        ("local", "zero.germ", "germ/1 over Fp(7) vars x y\n"
         "branch a: x = t^2; y = 1/7*t^3\n", "'1/7*t^3'"),
    ]
    for command, filename, text, chunk in cases:
        path = tmp_path / filename
        path.write_text(text)
        code, payload = run_json(capsys, command, "--input", str(path))
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "ParseError"
        assert record["message"] == (
            "denominator of 1/7 vanishes mod 7 (line 1, column 3) "
            f"in {chunk} (line 2, column 1)")


def test_statement_without_keyword_is_a_parse_error(tmp_path, capsys):
    # a statement that starts with `:` names no keyword: it is an
    # unknown statement at its line, never a raw IndexError
    cases = [
        ("gb", "colon.ring", "ring/1 over QQ vars x y\n: x;\n", 2),
        ("local", "colon.germ", "germ/1 over QQ vars x y\n"
         "branch a: x = t^2; y = t^3\n: y;\n", 3),
    ]
    for command, filename, text, line in cases:
        path = tmp_path / filename
        path.write_text(text)
        code, payload = run_json(capsys, command, "--input", str(path))
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "ParseError"
        assert record["message"] == (
            f"unknown statement ':' (line {line}, column 1)")


def test_prime_field_of_characteristic_zero_is_refused(tmp_path, capsys):
    # Fp:0 and Fp(0) name no field; they must not fall back to QQ
    code, payload = run_json(capsys, "gb", "--input", TC, "--field", "Fp:0")
    assert code == 1
    assert payload["errors"][0]["type"] == "NotPrime"
    path = tmp_path / "zero.ring"
    path.write_text("ring/1 over Fp(0) vars x y\nideal A = x;\n")
    code, payload = run_json(capsys, "gb", "--input", str(path))
    assert code == 1
    assert payload["errors"][0]["type"] == "NotPrime"


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
    for cap in ("1", "2"):
        code, payload = run_json(capsys, "local", "--input", CUSP,
                                 "--precision-cap", cap)
        assert code == 2
        (record,) = payload["errors"]
        assert record["type"] == "PrecisionCapExceeded"
        assert record["cap"] == int(cap)


def test_precision_cap_below_one_is_an_input_error(capsys):
    # a window with no positions: an input error, not an exceeded cap
    for cap in ("0", "-5"):
        code, payload = run_json(capsys, "local", "--input", CUSP,
                                 "--precision-cap", cap)
        assert code == 1
        (record,) = payload["errors"]
        assert record["type"] == "InputError"
        assert f"not {cap}" in record["message"]


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


def test_eliminate_every_variable_reports_the_library_error():
    # the library raises the InputError; the command reports it as is,
    # a repeated variable included
    code, out, err = _captured(["ideal-op", "--input", TC, "--op",
                                "eliminate", "--vars", "x0,x1,x2,x3,x1"])
    assert code == 1 and out == ""
    assert err == ("command: ideal-op\nseed: 0\nfield: QQ\n"
                   "result: (none)\nchecks: (none)\n"
                   "error (InputError): cannot eliminate every variable\n")


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
# curve meet in a curve, a NotMPrimary germ covered by
# test_branch_on_an_earlier_branch_is_not_m_primary.
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
    argv = ["ideal-op", "--input", str(path), "--op", op, "--left", "A"]
    operand = cidcurve.cli.IDEAL_OPS[op][1]
    _envelope_of(argv + {"right": ["--right", "B"], "vars": ["--vars", drop],
                         None: []}[operand])


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


@pytest.mark.parametrize("branches", [
    ("x = t^2; y = t^3", "x = t^2; y = t^3"),
    ("x = t^2; y = t^3", "x = t^2; y = -t^3"),
    ("x = t; y = 2*t", "x = 2*t; y = 4*t"),
])
def test_branch_on_an_earlier_branch_is_not_m_primary(tmp_path, capsys,
                                                      branches):
    # the second branch traces the first one's curve, so the two meet in
    # a curve: no delta exists, whatever the precision cap
    path = tmp_path / "twice.germ"
    path.write_text("germ/1 over QQ vars x y\n"
                    f"branch a: {branches[0]}\n"
                    f"branch b: {branches[1]}\n")
    code, payload = run_json(capsys, "local", "--input", str(path),
                             "--precision-cap", "64")
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "NotMPrimary"
    assert "'a'" in record["message"] and "'b'" in record["message"]
    assert "cap" not in record


# the node y^2 = x^3 + xy: a = (t^2 - t, t^3 - t^2) passes through the
# origin at t = 0 and t = 1, and b = a(t + 1) is a's germ at t = 1
NODE_TWICE = ("germ/1 over QQ vars x y\n"
              "branch a: x = t^2 - t; y = t^3 - t^2\n"
              "branch b: x = t^2 + t; y = t^3 + 2*t^2 + t\n")


def test_branches_of_one_curve_at_two_parameters(tmp_path, capsys):
    path = tmp_path / "node.germ"
    path.write_text(NODE_TWICE)
    code, payload = run_json(capsys, "local", "--input", str(path))
    assert code == 0
    assert payload["result"]["delta"] == 1
    assert payload["result"]["milnor"] == 1
    # at cap 1 each smooth branch certifies alone and the germ does not;
    # b lies on a's image curve, but that curve has two branches at the
    # origin, so b need not be a: no NotMPrimary verdict
    code, payload = run_json(capsys, "local", "--input", str(path),
                             "--precision-cap", "1")
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "PrecisionCapExceeded"
    assert record["cap"] == 1
    assert "the germ" in record["message"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("field", ["Fp:2", "Fp:3"])
def test_germ_ci_draw_over_a_small_field(tmp_path, capsys, field, seed):
    # the cusp with no ci: line draws its complete intersection as a
    # random combination of the ideal's generators; a coefficient that
    # vanishes in F_p would draw the zero form
    path = tmp_path / "cusp.germ"
    path.write_text("germ/1 over QQ vars x y\n"
                    "branch a: x = t^2; y = t^3\n"
                    "ideal: y^2 - x^3;\n")
    code, payload = run_json(capsys, "local", "--input", str(path),
                             "--field", field, "--seed", str(seed))
    assert code == 0
    assert payload["result"]["cid"] == payload["result"]["cid_direct"] == 0


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


@pytest.mark.parametrize("field", ["Fp:3", "QQ"])
def test_slow_germ_past_the_cap_is_answered_quickly(tmp_path, capsys,
                                                     field):
    # primitive, with no certificate below 16: the verdict reads the
    # branch's parameter pairs and never implicitizes it
    path = tmp_path / "slow.germ"
    path.write_text("germ/1 over QQ vars x y\n"
                    "branch a: x = t^14 + t^6; y = 2*t^8 + 2*t^6 + 2*t^3\n")
    code, payload = run_json(capsys, "local", "--input", str(path),
                             "--field", field, "--precision-cap", "16")
    assert code == 2
    (record,) = payload["errors"]
    assert record["type"] == "PrecisionCapExceeded"
    assert record["cap"] == 16


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_in_a_process():
    jobs = [
        ["cid", "--input", TC, "--route", "nope"],
        ["genus", "--input", TC, "--output", "json"],
        ["local", "--input", CUSP, "--output", "json"],
        ["genus", "--input", TC],
    ]
    fresh = []
    for argv in jobs:
        cidcurve.cli._build_parser.cache_clear()
        fresh.append(_captured(argv))
    cidcurve.cli._build_parser.cache_clear()
    shared = [_captured(argv) for argv in jobs]
    assert cidcurve.cli._build_parser.cache_info().misses == 1
    assert shared == fresh
    # the rejection is argparse's own, before any job runs
    code, out, err = shared[0]
    assert code == 1 and out == "" and "invalid choice: 'nope'" in err
    assert [code for code, _, _ in shared[1:]] == [0, 0, 0]


# a value each option takes on the commands that declare it
OPTION_VALUES = {
    "--ideal": ["X"], "--order": ["lex"], "--op": ["sum"], "--left": ["X"],
    "--right": ["X"], "--vars": ["x0"], "--route": ["smooth"],
    "--precision-cap": ["64"], "--max-attempts": ["3"], "--transversal": [],
}
INPUT_OF_KIND = {"ring": TC, "germ": CUSP}


def _argv_with(command, option):
    """A command line of `command` with `option` and the command's other
    required options, each with its sample value."""
    _, bodies, options = cidcurve.cli.COMMANDS[command]
    required = [other for other in options if other != option
                and cidcurve.cli.OPTIONS[other].get("required")]
    argv = [command, "--input", INPUT_OF_KIND[next(iter(bodies))]]
    for each in [option] + required:
        argv += [each] + OPTION_VALUES[each]
    return argv


@pytest.mark.parametrize("command, option", [
    (command, option)
    for command, (_, _, options) in cidcurve.cli.COMMANDS.items()
    for option in cidcurve.cli.OPTIONS if option not in options
])
def test_undeclared_option_is_rejected(command, option):
    # an option a command does not read is argparse's error, before any
    # input is read, not a silent no-op
    code, out, err = _captured(_argv_with(command, option))
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command, option", [
    (command, option)
    for command, (_, _, options) in cidcurve.cli.COMMANDS.items()
    for option in options
])
def test_declared_option_parses(command, option):
    args = cidcurve.cli._build_parser().parse_args(_argv_with(command, option))
    keywords = cidcurve.cli.OPTIONS[option]
    values = OPTION_VALUES[option]
    expected = keywords.get("type", str)(values[0]) if values else True
    assert getattr(args, keywords.get("dest", option[2:])) == expected


@pytest.mark.parametrize("op, option", [
    (op, option) for op, (_, operand) in cidcurve.cli.IDEAL_OPS.items()
    for option in ("--right", "--vars") if option != f"--{operand}"
])
def test_ideal_op_rejects_an_operand_it_does_not_read(capsys, op, option):
    # each operation reads at most one operand option; another one given
    # is an input error that names it, before any ideal is formed
    argv = ["ideal-op", "--input", TC, "--op", op, option,
            OPTION_VALUES[option][0]]
    operand = cidcurve.cli.IDEAL_OPS[op][1]
    if operand is not None:
        argv += [f"--{operand}", OPTION_VALUES[f"--{operand}"][0]]
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["errors"] == [{"type": "InputError",
                                  "message": f"--op {op} does not read "
                                             f"{option}"}]


@pytest.mark.parametrize("operands, message", [
    (["--op", "quotient"], "--right is required for --op quotient"),
    (["--op", "eliminate"], "--vars is required for --op eliminate"),
    (["--op", "eliminate", "--vars", "x0,q"], "unknown variable 'q'"),
])
def test_ideal_op_rejects_a_missing_operand(capsys, operands, message):
    # an operation without the operand it reads, or with a variable the
    # ring does not name, is one input error
    code, payload = run_json(capsys, "ideal-op", "--input", TC, *operands)
    assert code == 1
    assert payload["errors"] == [{"type": "InputError", "message": message}]


@pytest.mark.parametrize("kind, option", [
    ("germ", "--ideal"), ("germ", "--max-attempts"),
    ("germ", "--transversal"), ("ring", "--precision-cap"),
])
def test_verify_rejects_an_option_its_input_kind_does_not_read(
        capsys, kind, option):
    # `verify` reads the witness options on a ring file and the precision
    # cap on a germ file; one the input's kind does not read, even at its
    # default, is an input error that names it
    value = {"--max-attempts": ["24"], "--precision-cap": ["256"]}.get(
        option, OPTION_VALUES[option])
    code, payload = run_json(capsys, "verify", "--input",
                             INPUT_OF_KIND[kind], option, *value)
    assert code == 1
    assert payload["result"] == {}
    assert payload["errors"] == [{
        "type": "InputError",
        "message": f"`verify` on a {kind} input file does not read {option}"}]
    # the options that kind reads are taken
    read = {"ring": ["--max-attempts", "3", "--transversal"],
            "germ": ["--precision-cap", "64"]}[kind]
    code, payload = run_json(capsys, "verify", "--input",
                             INPUT_OF_KIND[kind], *read)
    assert code == 0 and payload["errors"] == []


@pytest.mark.parametrize("text, generator", [
    ("germ/1 over QQ vars x y\nbranch a: x = t^2; y = t^3\n"
     "ideal: y^2 - x^3, x*y;\n", "x*y"),
    ("germ/1 over QQ vars x\nbranch a: x = t\nideal: x;\n", "x"),
])
def test_germ_ideal_off_its_branch_is_an_input_error(tmp_path, capsys,
                                                     text, generator):
    # the ideal must vanish on every branch; one that does not is
    # rejected as such, before any discrepancy is formed
    path = tmp_path / "off.germ"
    path.write_text(text)
    code, payload = run_json(capsys, "local", "--input", str(path))
    assert code == 1
    (record,) = payload["errors"]
    assert record["type"] == "InputError"
    assert record["message"] == f"{generator} does not vanish along branch 'a'"
