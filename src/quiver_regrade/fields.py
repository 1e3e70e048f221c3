"""Exact scalar arithmetic: rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
``int`` in ``range(p)`` over F_p.  A field object bundles the operations so
matrix code can stay field-agnostic.  No floating point anywhere.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]

DEFAULT_PRIME = 32003

PRIME_ENV_VAR = "QUIVER_REGRADE_PRIME"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid far beyond any sane modulus here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of arbitrary-precision rationals."""

    char = 0
    spec = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_fraction(self, fr: Fraction) -> Fraction:
        return fr

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def dot(self, xs: Iterable[Fraction], ys: Iterable[Fraction]) -> Fraction:
        """Sum of the pairwise products, as one field operation."""
        return sum(map(operator.mul, xs, ys), Fraction(0))

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def format(self, a: Fraction) -> str:
        return str(a)

    def __repr__(self) -> str:
        return "Rationals()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("field:q")


class PrimeField:
    """The finite field F_p; elements are ints in ``range(p)``."""

    char: int

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.char = p
        self.spec = f"p{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def from_fraction(self, fr: Scalar) -> int:
        """The element of F_p that the int or Fraction ``fr`` stands for."""
        num, den = fr.as_integer_ratio()
        if den == 1:
            return num % self.p
        den %= self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {fr} vanishes mod {self.p}")
        return num * pow(den, self.p - 2, self.p) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def dot(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        return sum(map(operator.mul, xs, ys)) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def format(self, a: int) -> str:
        # symmetric lift keeps small negatives readable and round-trippable
        a %= self.p
        return str(a - self.p) if a > self.p // 2 else str(a)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("field:p", self.p))


Field = Union[Rationals, PrimeField]

QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field


def default_prime() -> int:
    """Default modulus, overridable through the environment."""
    raw = os.environ.get(PRIME_ENV_VAR)
    if raw is None:
        return DEFAULT_PRIME
    try:
        p = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRIME_ENV_VAR} must be an integer, got {raw!r}") from exc
    if not _is_prime(p):
        raise ValueError(f"{PRIME_ENV_VAR}={p} is not prime")
    return p


def parse_field_spec(spec: str) -> Field:
    """Parse a field choice: ``q`` for rationals, ``pN`` for F_N."""
    if spec == "q":
        return QQ
    if spec.startswith("p") and spec[1:].isdigit():
        return GF(int(spec[1:]))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'p<prime>')")
