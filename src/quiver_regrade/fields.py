"""Exact scalar arithmetic: rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
``int`` in ``range(p)`` over F_p.  A field object bundles the operations so
matrix code can stay field-agnostic.  No floating point anywhere.

There is one object per field: ``PrimeField(p)``, also called ``GF(p)``,
checks ``p`` once and then returns the same instance, ``Rationals()`` is
``QQ``, and a copy or a pickle is the field itself.  So fields compare and
hash by identity.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]

DEFAULT_PRIME = 32003

PRIME_ENV_VAR = "QUIVER_REGRADE_PRIME"

# Every modulus is below this bound, inside the range where the bases of
# _is_prime prove primality.
MODULUS_BOUND = 2**64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # Miller-Rabin on the first twelve primes: proved below 318665857834031151167461
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


def _require_prime(p: int, name: str) -> None:
    """Raise ValueError unless ``p``, called ``name``, is a prime below MODULUS_BOUND."""
    if p >= MODULUS_BOUND:
        raise ValueError(f"{name} is at or above the modulus bound 2**64")
    if not _is_prime(p):
        raise ValueError(f"{name} is not prime")


class Rationals:
    """The field of arbitrary-precision rationals; ``Rationals()`` is ``QQ``."""

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

    def __new__(cls) -> "Rationals":
        return QQ

    def __reduce__(self):
        return Rationals, ()

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """The finite field F_p; elements are ints in ``range(p)``.  ``p`` is
    checked once, and every later ``PrimeField(p)`` is the same object."""

    char: int
    _instances: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int) -> "PrimeField":
        field = cls._instances.get(p)
        if field is None:
            _require_prime(p, f"modulus {p}")
            field = cls._instances[p] = super().__new__(cls)
            field.p = field.char = p
            field.spec = f"p{p}"
            field.zero, field.one = 0, 1
        return field

    def __reduce__(self):
        return PrimeField, (self.p,)

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
        return num * pow(den, -1, self.p) % self.p

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
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def format(self, a: int) -> str:
        # symmetric lift keeps small negatives readable and round-trippable
        a %= self.p
        return str(a - self.p) if a > self.p // 2 else str(a)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


Field = Union[Rationals, PrimeField]

QQ: Rationals = object.__new__(Rationals)
GF = PrimeField


def parse_integer(text: str) -> int:
    """``text`` as an int: ASCII digits with an optional leading ``-``.

    ``int()`` also reads the digits of other scripts, ``_`` separators, a
    leading ``+`` and surrounding blanks; every integer of the input is read
    here instead, so an Arabic-Indic seven or ``1_0`` is refused, not read as
    7 or 10.  The error is the one ``int()`` raises on text that is no integer.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def default_prime() -> int:
    """Default modulus, overridable through the environment."""
    raw = os.environ.get(PRIME_ENV_VAR)
    if raw is None:
        return DEFAULT_PRIME
    try:
        p = parse_integer(raw)
    except ValueError as exc:
        raise ValueError(f"{PRIME_ENV_VAR} must be an integer, got {raw!r}") from exc
    _require_prime(p, f"{PRIME_ENV_VAR}={p}")
    return p


def parse_field_spec(spec: str) -> Field:
    """Parse a field choice: ``q`` for rationals, ``pN`` for F_N."""
    if spec == "q":
        return QQ
    if spec.startswith("p") and not spec.startswith("p-"):
        try:
            p = parse_integer(spec[1:])
        except ValueError:
            pass
        else:
            return GF(p)
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'p<prime>')")
