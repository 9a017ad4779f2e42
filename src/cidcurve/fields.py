"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values: ints in [0, p) over F_p, and over the
rationals an int when the value is integral, else a fractions.Fraction
in lowest terms with denominator above 1, as `rational` builds them, so
integral coefficients pay for no Fraction.  An int and a Fraction of one
value compare, hash and print alike, so a sum or product that comes out
as an integral Fraction is still the same coefficient.  A Field object
owns the arithmetic so polynomial code never has to branch on the field
kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, NotPrime

DEFAULT_PRIME = 32003
MAX_CHARACTERISTIC = 2**31 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def rational(n, d=1):
    """n / d as a rational scalar: the int quotient when d divides n,
    else a Fraction in lowest terms.  n and d are ints or Fractions."""
    q, rem = divmod(n, d)
    return Fraction(n, d) if rem else q


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact far beyond 2^31."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field, identified by its characteristic (0 means Q)."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p > MAX_CHARACTERISTIC:
            raise NotPrime(f"characteristic {p} exceeds 2^31 - 1")
        if not is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def prime_field(cls, p: int = DEFAULT_PRIME) -> "Field":
        if p == 0:
            raise NotPrime("characteristic 0 is not prime")
        return cls(p)

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    # --- element construction ------------------------------------------

    def from_int(self, n: int):
        if self.characteristic:
            return n % self.characteristic
        return rational(n)

    def from_fraction(self, q: Fraction):
        if self.characteristic == 0:
            return rational(q)
        p = self.characteristic
        den = q.denominator % p
        if den == 0:
            raise DivisionByZero(f"denominator of {q} vanishes mod {p}")
        return q.numerator % p * pow(den, -1, p) % p

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    # --- arithmetic ----------------------------------------------------

    def add(self, a, b):
        if self.characteristic:
            return (a + b) % self.characteristic
        return a + b

    def sub(self, a, b):
        if self.characteristic:
            return (a - b) % self.characteristic
        return a - b

    def mul(self, a, b):
        if self.characteristic:
            return a * b % self.characteristic
        return a * b

    def neg(self, a):
        if self.characteristic:
            return -a % self.characteristic
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        return rational(a.denominator, a.numerator)

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero scalar")
        if self.characteristic:
            return a * pow(b, -1, self.characteristic) % self.characteristic
        return rational(a.numerator * b.denominator,
                        a.denominator * b.numerator)

    # --- presentation --------------------------------------------------

    def to_str(self, a) -> str:
        return str(a)

    def name(self) -> str:
        return "QQ" if self.characteristic == 0 else f"Fp({self.characteristic})"

    def __repr__(self):
        return f"Field({self.name()})"

