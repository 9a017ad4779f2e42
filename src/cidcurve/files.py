"""Line-oriented input files for rings, ideals and curve germs.

Two versioned formats share a header shape:

    ring/1 over QQ vars x0 x1 x2 x3
    ideal X = x2^2 - x1*x3, x1^2 - x0*x2,
              x0*x3 - x1*x2;

    germ/1 over QQ vars x y
    branch a: x = t^2; y = t^3
    ideal: y^2 - x^3;
    ci: y^2 - x^3;

`#` starts a comment; blank lines are skipped.  Ideal statements run
until a terminating semicolon and may span lines.  A branch statement
is one line of `var = polynomial in t` assignments separated by
semicolons; unassigned coordinates are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ParseError
from .fields import Field
from .germs import BranchParam
from .polynomials import PolyRing, line_and_column

RING_HEADER = "ring/1"
GERM_HEADER = "germ/1"


@dataclass(frozen=True)
class RingFile:
    ring: PolyRing
    ideals: dict

    def first_ideal(self):
        if not self.ideals:
            raise ParseError("file defines no ideal")
        name = next(iter(self.ideals))
        return name, self.ideals[name]

    def named(self, name: str):
        if name not in self.ideals:
            known = ", ".join(self.ideals) or "none"
            raise ParseError(f"no ideal {name!r} in file (have: {known})")
        return self.ideals[name]


@dataclass(frozen=True)
class GermFile:
    ring: PolyRing
    t_ring: PolyRing
    branches: tuple
    ideal_gens: tuple = None
    ci_gens: tuple = None


def parse_field_token(token: str, line: int = None) -> Field:
    """Field from a header token `QQ` or `Fp(<p>)`."""
    if token == "QQ":
        return Field.rationals()
    if token.startswith("Fp(") and token.endswith(")"):
        body = token[3:-1]
        if body.isdigit():
            return Field.prime_field(int(body))
    raise ParseError(f"bad field {token!r}", line=line, column=1)


def parse_field_flag(flag: str) -> Field:
    """Field from the command-line form `QQ` or `Fp:<p>`."""
    if flag == "QQ":
        return Field.rationals()
    if flag.startswith("Fp:") and flag[3:].isdigit():
        return Field.prime_field(int(flag[3:]))
    raise ParseError(f"bad field flag {flag!r}; expected QQ or Fp:<p>")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _header(lines, expect: str, field_override: Field = None):
    for no, raw in lines:
        text = _strip_comment(raw).strip()
        if not text:
            continue
        parts = text.split()
        if (len(parts) < 4 or parts[0] != expect or parts[1] != "over"
                or parts[3] != "vars"):
            raise ParseError(
                f"expected header `{expect} over <field> vars <names>`",
                line=no, column=1,
            )
        names = tuple(parts[4:])
        if not names:
            raise ParseError("header lists no variables", line=no, column=1)
        field = field_override or parse_field_token(parts[2], line=no)
        try:
            return PolyRing(field, names), no
        except ValueError as err:
            raise ParseError(str(err), line=no, column=1)
    raise ParseError(f"empty file; expected a `{expect}` header")


def _keyword(stmt: str) -> str:
    """The first word of a statement, read before any `:`."""
    return (stmt.partition(":")[0].split() or stmt.split())[0]


def _statements(lines):
    """Yield (line_no, text) per statement: `branch` lines stand alone,
    anything else accumulates until a terminating semicolon."""
    pending = []
    start = None
    for no, raw in lines:
        text = _strip_comment(raw).strip()
        if not text:
            continue
        if not pending and _keyword(text) == "branch":
            yield no, text
            continue
        if start is None:
            start = no
        pending.append(text)
        if text.endswith(";"):
            yield start, " ".join(pending)
            pending = []
            start = None
    if pending:
        raise ParseError("statement not terminated by `;`", line=start,
                         column=1)


def _parse_poly_list(ring: PolyRing, body: str, line: int):
    gens = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty polynomial in list", line=line, column=1)
        try:
            gens.append(ring.parse(chunk))
        except ParseError as err:
            raise ParseError(f"{err} in {chunk!r}", line=line, column=1)
    return tuple(gens)


def parse_ring_text(text: str, field_override: Field = None) -> RingFile:
    lines = list(enumerate(text.splitlines(), start=1))
    ring, header_no = _header(iter(lines), RING_HEADER, field_override)
    ideals = {}
    rest = [(no, raw) for no, raw in lines
            if no > header_no]
    for no, stmt in _statements(iter(rest)):
        if stmt.split()[0] != "ideal":
            raise ParseError(f"unknown statement {stmt.split()[0]!r}",
                             line=no, column=1)
        head, eq, body = stmt[5:].partition("=")
        name = head.strip()
        if not eq or not name or not name.isidentifier():
            raise ParseError("expected `ideal <name> = <polys>;`",
                             line=no, column=1)
        if name in ideals:
            raise ParseError(f"ideal {name!r} defined twice", line=no,
                             column=1)
        ideals[name] = _parse_poly_list(ring, body.strip().rstrip(";"), no)
    return RingFile(ring=ring, ideals=ideals)


def parse_germ_text(text: str, field_override: Field = None) -> GermFile:
    lines = list(enumerate(text.splitlines(), start=1))
    ring, header_no = _header(iter(lines), GERM_HEADER, field_override)
    t_ring = PolyRing(ring.field, ("t",))
    index = {name: i for i, name in enumerate(ring.names)}
    branches = []
    ideal_gens = None
    ci_gens = None
    rest = [(no, raw) for no, raw in lines if no > header_no]
    for no, stmt in _statements(iter(rest)):
        key = _keyword(stmt)
        if key == "branch":
            head, _, body = stmt.partition(":")
            label = head[6:].strip() or f"b{len(branches)}"
            coords = [t_ring.zero()] * ring.arity
            seen = set()
            for piece in body.split(";"):
                piece = piece.strip()
                if not piece:
                    continue
                var, eq, expr = piece.partition("=")
                var = var.strip()
                if not eq or var not in index:
                    raise ParseError(
                        f"expected `<var> = <poly in t>`, got {piece!r}",
                        line=no, column=1,
                    )
                if var in seen:
                    raise ParseError(f"coordinate {var!r} assigned twice",
                                     line=no, column=1)
                seen.add(var)
                expr = expr.strip()
                try:
                    coords[index[var]] = t_ring.parse(expr)
                except ParseError as err:
                    raise ParseError(f"{err} in {expr!r}", line=no, column=1)
            try:
                branches.append(BranchParam(tuple(coords), label=label))
            except InputError as err:
                raise ParseError(str(err), line=no, column=1)
        elif key == "ideal":
            if ideal_gens is not None:
                raise ParseError("second `ideal:` block", line=no, column=1)
            body = stmt.partition(":")[2].strip().rstrip(";")
            ideal_gens = _parse_poly_list(ring, body, no)
        elif key == "ci":
            if ci_gens is not None:
                raise ParseError("second `ci:` block", line=no, column=1)
            body = stmt.partition(":")[2].strip().rstrip(";")
            ci_gens = _parse_poly_list(ring, body, no)
        else:
            raise ParseError(f"unknown statement {key!r}", line=no, column=1)
    if not branches:
        raise ParseError("germ file defines no branches")
    return GermFile(ring=ring, t_ring=t_ring, branches=tuple(branches),
                    ideal_gens=ideal_gens, ci_gens=ci_gens)


def sniff_format(text: str) -> str:
    """`ring` or `germ`, from the first non-comment line."""
    for raw in text.splitlines():
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        word = stripped.split()[0]
        if word == RING_HEADER:
            return "ring"
        if word == GERM_HEADER:
            return "germ"
        raise ParseError(f"unrecognized header {word!r}")
    raise ParseError("empty input file")


def load_text(path: str) -> str:
    """The file's text, decoded as UTF-8 with a leading byte-order mark
    dropped and every line ending read as "\\n".  A byte sequence that is
    not UTF-8 is a ParseError naming its first byte and where it stands."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # err.object is the data after any byte-order mark, and every
        # byte before err.start decodes
        before = _universal_newlines(err.object[:err.start].decode("utf-8"))
        raise ParseError(f"invalid UTF-8 byte 0x{err.object[err.start]:02x}",
                         *line_and_column(before, len(before))) from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")
