"""Command-line interface: reports, exit codes, determinism."""

import json
import pathlib

from cidcurve.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TC = str(ROOT / "inputs" / "twisted_cubic.ring")
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
