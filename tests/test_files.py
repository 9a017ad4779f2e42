"""Ring and germ input file parsing."""

import pytest

from cidcurve import Field, parse_germ_text, parse_ring_text, sniff_format
from cidcurve.errors import ParseError
from cidcurve.files import parse_field_flag, parse_field_token

RING_TEXT = """\
# a comment line
ring/1 over QQ vars x0 x1 x2 x3

ideal X = x2^2 - x1*x3, x1^2 - x0*x2,
          x0*x3 - x1*x2;   # trailing comment
ideal H = x0;
"""

GERM_TEXT = """\
germ/1 over QQ vars x y
branch a: x = t^2; y = t^3
# second branch has an omitted coordinate
branch b: x = t
ideal: y^2 - x^3;
ci: y^2 - x^3;
"""


def test_parse_ring():
    parsed = parse_ring_text(RING_TEXT)
    assert parsed.ring.names == ("x0", "x1", "x2", "x3")
    assert parsed.ring.field == Field.rationals()
    assert list(parsed.ideals) == ["X", "H"]
    assert len(parsed.named("X")) == 3
    assert all(g.is_homogeneous() for g in parsed.named("X"))
    name, gens = parsed.first_ideal()
    assert name == "X" and len(gens) == 3
    with pytest.raises(ParseError):
        parsed.named("missing")


def test_parse_ring_field_override():
    parsed = parse_ring_text(RING_TEXT, field_override=Field.prime_field(5))
    assert parsed.ring.field.characteristic == 5


def test_parse_ring_fp_header():
    parsed = parse_ring_text("ring/1 over Fp(7) vars x y\nideal A = x*y;\n")
    assert parsed.ring.field.characteristic == 7


def test_parse_germ():
    parsed = parse_germ_text(GERM_TEXT)
    assert parsed.ring.names == ("x", "y")
    assert len(parsed.branches) == 2
    a, b = parsed.branches
    assert a.label == "a" and b.label == "b"
    t = parsed.t_ring.variable(0)
    assert a.coords == (t**2, t**3)
    assert b.coords == (t, parsed.t_ring.zero())
    assert parsed.ideal_gens is not None and len(parsed.ideal_gens) == 1
    assert parsed.ci_gens is not None


def test_parse_germ_minimal():
    parsed = parse_germ_text("germ/1 over QQ vars x y\nbranch : x = t\n")
    assert parsed.branches[0].label == "b0"
    assert parsed.ideal_gens is None


def test_sniff():
    assert sniff_format(RING_TEXT) == "ring"
    assert sniff_format(GERM_TEXT) == "germ"
    with pytest.raises(ParseError):
        sniff_format("hello world\n")
    with pytest.raises(ParseError):
        sniff_format("# only comments\n")


@pytest.mark.parametrize("bad", [
    "",                                            # empty
    "ring/2 over QQ vars x\nideal A = x;\n",       # unknown version
    "ring/1 over ZZ vars x\nideal A = x;\n",       # bad field
    "ring/1 over QQ vars\nideal A = x;\n",         # no variables
    "ring/1 over QQ vars x x\nideal A = x;\n",     # repeated name
    "ring/1 over QQ vars x\nideal A = x\n",        # missing semicolon
    "ring/1 over QQ vars x\nwhat A = x;\n",        # unknown statement
    "ring/1 over QQ vars x\nideal A = x;\nideal A = x;\n",  # duplicate
    "ring/1 over QQ vars x\nideal A = y;\n",       # unknown variable
    "ring/1 over QQ vars x\nideal A = x,, x;\n",   # empty list entry
])
def test_ring_errors(bad):
    with pytest.raises(ParseError):
        parse_ring_text(bad)


@pytest.mark.parametrize("bad", [
    "germ/1 over QQ vars x y\n",                       # no branches
    "germ/1 over QQ vars x y\nbranch a: z = t\n",      # unknown coordinate
    "germ/1 over QQ vars x y\nbranch a: x = t; x = t\n",  # duplicate coord
    "germ/1 over QQ vars x y\nbranch a: x = 1 + t\n",  # nonzero at origin
    "germ/1 over QQ vars x y\nbranch a: x = t\nideal: x;\nideal: y;\n",
])
def test_germ_errors(bad):
    with pytest.raises(ParseError):
        parse_germ_text(bad)


def test_parse_error_carries_line():
    try:
        parse_ring_text("ring/1 over QQ vars x\nwhat A = x;\n")
    except ParseError as err:
        assert err.line == 2
    else:
        raise AssertionError("expected a parse error")


def test_branch_parse_error_carries_the_statement_line():
    # a branch coordinate is parsed on its own, then anchored at the
    # statement's line, as an ideal generator is
    with pytest.raises(ParseError) as info:
        parse_germ_text("germ/1 over QQ vars x y\n"
                        "branch a: x = t^2; y = t^3 +* t\n")
    assert (info.value.line, info.value.column) == (2, 1)
    assert str(info.value).endswith("in 't^3 +* t' (line 2, column 1)")


def test_field_flag():
    assert parse_field_flag("QQ") == Field.rationals()
    assert parse_field_flag("Fp:11") == Field.prime_field(11)
    with pytest.raises(ParseError):
        parse_field_flag("GF(4)")
    assert parse_field_token("Fp(11)") == Field.prime_field(11)
    with pytest.raises(ParseError):
        parse_field_token("RR")
