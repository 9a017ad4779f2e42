"""Multivariate polynomials with exact coefficients.

A PolyRing fixes an ordered variable tuple and a coefficient field.
Polynomials are immutable term dictionaries (dense exponent tuples, no
zero coefficients ever stored), so equality and hashing are structural
and canonical printing is deterministic.

The text grammar accepted by parse_polynomial:

    expr   := [sign] term { sign term }
    term   := factor { "*" factor }
    factor := [sign] base [ "^" INT ]
    base   := INT [ "/" INT ] | NAME | "(" expr ")"

with "^" binding tighter than "*", which binds tighter than "+"/"-";
whitespace is insignificant.  The INT "/" INT form is a rational
coefficient literal, accepted so that printed output always parses
back to the same polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DivisionByZero,
    IndexOutOfRange,
    NotHomogeneous,
    NotLinear,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from .fields import Field, rational
from .orders import GREVLEX, _packing

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring k[names] over an exact field."""

    field: Field
    names: tuple

    def __post_init__(self):
        if not self.names:
            raise ValueError("ring needs at least one variable")
        seen = set()
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def arity(self) -> int:
        return len(self.names)

    def zero_exps(self):
        return (0,) * len(self.names)

    # --- element construction ------------------------------------------

    def polynomial(self, terms: dict) -> "Polynomial":
        clean = {e: c for e, c in terms.items() if c}
        return Polynomial(self, clean)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one())

    def constant(self, scalar) -> "Polynomial":
        if not scalar:
            return self.zero()
        return Polynomial(self, {self.zero_exps(): scalar})

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.from_int(n))

    def variable(self, index: int) -> "Polynomial":
        if not 0 <= index < self.arity:
            raise IndexOutOfRange(f"variable index {index} out of range")
        exps = [0] * self.arity
        exps[index] = 1
        return Polynomial(self, {tuple(exps): self.field.one()})

    def variables(self):
        return [self.variable(i) for i in range(self.arity)]

    def linear_form(self, coeffs) -> "Polynomial":
        """Sum of coeffs[i] * x_i from raw ints or field scalars."""
        terms = {}
        for i, c in enumerate(coeffs):
            if isinstance(c, int):
                c = self.field.from_int(c)
            if c:
                exps = [0] * self.arity
                exps[i] = 1
                terms[tuple(exps)] = c
        return Polynomial(self, terms)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __repr__(self):
        return f"PolyRing({self.field.name()}; {', '.join(self.names)})"


class Polynomial:
    """Immutable sparse polynomial; `terms` maps exponent tuple to coeff."""

    __slots__ = ("ring", "terms", "_hash", "_ints")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._ints = None

    # --- basic protocol -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring.names, frozenset(self.terms.items())))
            self._hash = h
        return h

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings")

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self._check_ring(other)
        field = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(terms.get(e, 0), c) if e in terms else c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.ring, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check_ring(other)
        field = self.ring.field
        out = {}
        add = field.add
        mul = field.mul
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = mul(c1, c2)
                if e in out:
                    s = add(out[e], prod)
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif prod:
                    out[e] = prod
        return Polynomial(self.ring, out)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, scalar) -> "Polynomial":
        if not scalar:
            return self.ring.zero()
        field = self.ring.field
        return Polynomial(self.ring, {e: field.mul(c, scalar) for e, c in self.terms.items()})

    # --- structure ------------------------------------------------------

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        if not self.is_homogeneous():
            raise NotHomogeneous(f"{self} is not homogeneous")
        return self.total_degree()

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_linear_form(self) -> bool:
        return bool(self.terms) and all(sum(e) == 1 for e in self.terms)

    def leading(self, order=GREVLEX):
        """(exponent tuple, coefficient) of the largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.fields)
        return e, self.terms[e]

    def sorted_terms(self, order=GREVLEX):
        fields = order.fields
        return sorted(self.terms.items(), key=lambda item: fields(item[0]),
                      reverse=True)

    def coefficient_of(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero())

    # --- calculus and substitution -------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self.ring.arity:
            raise IndexOutOfRange(f"variable index {index} out of range")
        field = self.ring.field
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            coeff = field.mul(c, field.from_int(k))
            if not coeff:
                continue  # characteristic divides the exponent
            e2 = list(e)
            e2[index] = k - 1
            out[tuple(e2)] = coeff
        return Polynomial(self.ring, out)

    def compose(self, ring: PolyRing, images) -> "Polynomial":
        """Substitute images[i] (a polynomial of `ring`) for variable i,
        by `_substitute`: each power of an image is computed once, from
        the one before it, and the terms are summed in place."""
        if len(images) != self.ring.arity:
            raise ValueError("need one image per variable")
        return next(_substitute([self], ring, images))

    def evaluate(self, point):
        """Value at a scalar point (list of field elements)."""
        field = self.ring.field
        total = field.zero()
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                base = point[i]
                for _ in range(k):
                    v = field.mul(v, base)
            total = field.add(total, v)
        return total

    # --- integer normalization (rationals only) ------------------------

    def int_terms(self):
        """(d, m) with d the exponent -> int dict of m * f: over QQ the
        primitive integer multiple of f (denominators and content
        cleared, m a rational scalar), over F_p the residues and m = 1.
        Computed once and shared, so callers must not change d."""
        if self._ints is None:
            self._ints = self._int_terms()
        return self._ints

    def _int_terms(self):
        if self.ring.field.characteristic:
            return self.terms, 1
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        content = 0
        for c in self.terms.values():
            content = gcd(content, c.numerator * (den // c.denominator))
        if content == 0:
            return {}, 1
        return ({e: c.numerator * (den // c.denominator) // content
                 for e, c in self.terms.items()}, rational(den, content))

    def primitive_int(self) -> "Polynomial":
        """Scale to integer coefficients with content 1 and positive leading
        coefficient (grevlex); identity over F_p."""
        if not self.terms or self.ring.field.characteristic:
            return self
        ints, _ = self.int_terms()
        lm, _ = self.leading(GREVLEX)
        sign = -1 if ints[lm] < 0 else 1
        return Polynomial(self.ring, {e: sign * c for e, c in ints.items()})

    # --- printing -------------------------------------------------------

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return f"<{render_polynomial(self)}>"


# --- substitution ------------------------------------------------------


def _times(a: dict, b: dict, p: int, into: dict = None) -> dict:
    """a * b for two packed term dicts, reduced mod p when p > 0 and with
    no zero terms.  With `into`, the products are added into that dict
    as they stand and it is returned: a sum of products is reduced once,
    by `_reduced`."""
    out = {} if into is None else into
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + va * vb
    return out if into is not None else _reduced(out, p)


def _reduced(d: dict, p: int) -> dict:
    """d with its coefficients reduced mod p when p > 0, zeros dropped."""
    if p:
        return {k: r for k, v in d.items() if (r := v % p)}
    return {k: v for k, v in d.items() if v}


def _substitute(polys, target: PolyRing, images):
    """Yield each of polys with images[i], a polynomial of `target`,
    put for its variable i.  They share one table of image powers:
    power k of image i is power k - 1 times image i, made the first
    time a term asks for it.

    The work is done on {packed exponent: coefficient} dicts, packed by
    the grevlex `Packing` of `target` sized for every exponent a product
    can reach, so a monomial product is an int addition.  Every term's
    product is added into its polynomial's dict by `_times`.  Over F_p
    residues are reduced as each power is stored and at the end; over QQ
    integral coefficients work as ints, and each sum is made a rational
    scalar at the end: an int stays an int."""
    for g in images:
        if g.ring != target:
            raise RingMismatch("substituted polynomial outside the target ring")
    polys = list(polys)
    p = target.field.characteristic

    def raw(c):
        return c.numerator if not p and c.denominator == 1 else c

    tops = [max((k for e in g.terms for k in e), default=0) for g in images]
    bound = max((sum(k * tops[i] for i, k in enumerate(e) if k)
                 for f in polys for e in f.terms), default=0)
    packing = _packing(GREVLEX, target.arity, bound.bit_length())
    pack, unpack = packing.pack, packing.unpack
    powers = [[{0: 1}, {pack(e): raw(c) for e, c in g.terms.items()}]
              for g in images]

    def power(i, k):
        table = powers[i]
        while len(table) <= k:
            table.append(_times(table[-1], table[1], p))
        return table[k]

    for f in polys:
        acc = {}
        for e, c in f.terms.items():
            factors = [power(i, k) for i, k in enumerate(e) if k]
            head = {0: raw(c)}
            for factor in factors[:-1]:
                head = _times(head, factor, p)
            _times(head, factors[-1] if factors else {0: 1}, p, acc)
        if p:
            terms = {unpack(k): r for k, v in acc.items() if (r := v % p)}
        else:
            terms = {unpack(k): rational(v) for k, v in acc.items() if v}
        yield Polynomial(target, terms)


# --- printing ----------------------------------------------------------


def _render_monomial(names, exps):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_polynomial(f: Polynomial, order=GREVLEX) -> str:
    """Canonical text: terms descending in `order`, exact coefficients."""
    if not f.terms:
        return "0"
    names = f.ring.names
    rational = f.ring.field.is_rationals
    pieces = []
    for i, (exps, coeff) in enumerate(f.sorted_terms(order)):
        negative = rational and coeff < 0
        mag = -coeff if negative else coeff
        mono = _render_monomial(names, exps)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# --- parsing -----------------------------------------------------------

# Each open parenthesis costs the recursive-descent parser four stack
# frames; the bound keeps deep input far from the interpreter's recursion
# limit, so it fails as a ParseError.
MAX_NESTING = 100

# The lexical rules, shared by the two patterns below.  _OPS is used
# inside a character class, so "-" stays first, where it is literal.
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_OPS = r"-+*^/()"

_TOKEN_RE = re.compile(
    rf"(?P<int>\d+)|(?P<name>{_NAME})|(?P<op>[{_OPS}])|(?P<ws>\s+)|(?P<bad>.)"
)

# The longest prefix of a text that _TOKEN_RE splits into tokens none of
# which is `bad`.  Digits, operators and whitespace may follow each other
# in any order, and "_" only inside a name, so they are merged into runs
# between names.  Both branches consume a maximal run and nothing follows
# the repeat, so the greedy match succeeds without backtracking.
_VALID_PREFIX_RE = re.compile(rf"(?:[{_OPS}\s\d]+|{_NAME})*")


def line_and_column(text: str, offset: int):
    """(line, column) of text[offset], both counted from 1; only "\\n"
    ends a line."""
    start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, start) + 1, offset - start + 1


def _tokenize(text):
    """Yield the (kind, value, offset) tokens of text, whitespace left
    out, then ("end", "", len(text)).  A character that starts no token
    is a ParseError raised before the first token, wherever it stands,
    so it is reported ahead of any syntax error; past that, tokens are
    made only as the parser asks for them."""
    bad = _VALID_PREFIX_RE.match(text).end()
    if bad < len(text):
        raise ParseError(f"unexpected character {text[bad]!r}",
                         *line_and_column(text, bad))
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(), m.start()
    yield "end", "", len(text)


class _Parser:
    """Recursive descent over _tokenize's tokens with one token of
    lookahead.  Every rule looks at the lookahead before it advances, so
    the "end" token is never advanced past."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.lookahead = next(self.tokens)
        self.depth = 0
        self.var_index = {name: i for i, name in enumerate(ring.names)}

    def advance(self):
        tok = self.lookahead
        self.lookahead = next(self.tokens)
        return tok

    def where(self, offset):
        return line_and_column(self.text, offset)

    def fail(self, message):
        _, value, offset = self.lookahead
        shown = value or "end of input"
        raise ParseError(f"{message}, found {shown!r}", *self.where(offset))

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.lookahead[0] != "end":
            self.fail("trailing input")
        return result

    def expr(self) -> Polynomial:
        kind, value, _ = self.lookahead
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.lookahead
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result - rhs if value == "-" else result + rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.lookahead
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        kind, value, _ = self.lookahead
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        base = self.base()
        kind, value, _ = self.lookahead
        if kind == "op" and value == "^":
            self.advance()
            if self.lookahead[0] != "int":
                self.fail("expected integer exponent")
            base = base ** int(self.advance()[1])
        if negate:
            base = -base
        return base

    def base(self) -> Polynomial:
        kind, value, offset = self.lookahead
        if kind == "int":
            self.advance()
            num = int(value)
            kind2, value2, _ = self.lookahead
            if kind2 == "op" and value2 == "/":
                self.advance()
                if self.lookahead[0] != "int":
                    self.fail("expected integer denominator")
                _, value3, offset3 = self.advance()
                den = int(value3)
                if den == 0:
                    raise ParseError("zero denominator in coefficient",
                                     *self.where(offset3))
                try:
                    coeff = self.ring.field.from_fraction(Fraction(num, den))
                except DivisionByZero as err:
                    raise ParseError(str(err), *self.where(offset3)) from None
                return self.ring.constant(coeff)
            return self.ring.from_int(num)
        if kind == "name":
            index = self.var_index.get(value)
            if index is None:
                raise UnknownVariable(f"unknown variable {value!r}",
                                      *self.where(offset))
            self.advance()
            return self.ring.variable(index)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}",
                    *self.where(offset))
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind2, value2, _ = self.lookahead
            if not (kind2 == "op" and value2 == ")"):
                self.fail("expected ')'")
            self.advance()
            return inner
        self.fail("expected a number, variable or '('")


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    return _Parser(ring, text).parse()


# --- op-style aliases ---------------------------------------------------


def partial_derivative(f: Polynomial, index: int) -> Polynomial:
    return f.derivative(index)


# --- charts: dehomogenization and homogenization -----------------------


@dataclass(frozen=True)
class Chart:
    """Affine chart of projective space: the locus where a linear form h
    equals 1.  `pivot` is the eliminated variable index and `form` holds
    the coefficients of h, which is the recorded change of coordinates:
    x_pivot = (1 - sum_{j != pivot} c_j x_j) / c_pivot on the chart."""

    ambient: PolyRing
    ring: PolyRing
    pivot: int
    form: tuple

    @classmethod
    def from_form(cls, h: Polynomial) -> "Chart":
        if not h.is_linear_form():
            raise NotLinear(f"chart form must be linear, got {h}")
        ambient = h.ring
        coeffs = [h.coefficient_of(tuple(1 if j == i else 0 for j in range(ambient.arity)))
                  for i in range(ambient.arity)]
        pivot = next(i for i, c in enumerate(coeffs) if c)
        names = tuple(n for i, n in enumerate(ambient.names) if i != pivot)
        ring = PolyRing(ambient.field, names)
        return cls(ambient, ring, pivot, tuple(coeffs))

    def is_coordinate(self) -> bool:
        return sum(1 for c in self.form if c) == 1 and self.form[self.pivot] == self.ambient.field.one()

    def images(self):
        """Substitution targets for each ambient variable."""
        field = self.ambient.field
        chart_vars = self.ring.variables()
        images = []
        k = 0
        for i in range(self.ambient.arity):
            if i == self.pivot:
                images.append(None)  # placeholder, filled below
                continue
            images.append(chart_vars[k])
            k += 1
        pivot_image = self.ring.one()
        inv = field.inv(self.form[self.pivot])
        for i, c in enumerate(self.form):
            if i == self.pivot or not c:
                continue
            pivot_image = pivot_image - images[i].scale(c)
        images[self.pivot] = pivot_image.scale(inv)
        return images

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ambient:
            raise RingMismatch("polynomial not in the chart's ambient ring")
        return f.compose(self.ring, self.images())


def dehomogenize(f: Polynomial, h: Polynomial) -> Polynomial:
    """Restrict f to the affine chart h = 1 (h a linear form; the chart
    ring drops the pivot variable)."""
    return Chart.from_form(h).apply(f)


def homogenize(g: Polynomial, ambient: PolyRing, pivot: int) -> Polynomial:
    """Inverse of dehomogenize for coordinate charts: reinsert variable
    `pivot` and pad every term to the top degree."""
    if ambient.arity != g.ring.arity + 1:
        raise RingMismatch("ambient ring must have exactly one more variable")
    d = max(g.total_degree(), 0)
    out = {}
    for e, c in g.terms.items():
        pad = d - sum(e)
        full = list(e[:pivot]) + [pad] + list(e[pivot:])
        out[tuple(full)] = c
    return Polynomial(ambient, out)
