"""Field backends: exact rationals and prime fields."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiver_regrade import (
    DEFAULT_PRIME,
    GF,
    PRIME_ENV_VAR,
    QQ,
    PrimeField,
    Rationals,
    default_prime,
    parse_field_spec,
)


# the smallest composites that pass Miller-Rabin to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestRationals:
    def test_constants(self):
        assert QQ.zero == Fraction(0)
        assert QQ.one == Fraction(1)
        assert QQ.char == 0

    def test_arithmetic_is_fraction_arithmetic(self):
        a = QQ.from_fraction(Fraction(2, 3))
        b = QQ.from_fraction(Fraction(-1, 6))
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.sub(a, b) == Fraction(5, 6)
        assert QQ.mul(a, b) == Fraction(-1, 9)
        assert QQ.neg(a) == Fraction(-2, 3)
        assert QQ.inv(a) == Fraction(3, 2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ.mul(QQ.one, QQ.inv(QQ.zero))

    def test_from_int(self):
        assert QQ.from_int(-7) == Fraction(-7)

    def test_spec(self):
        assert QQ.spec == "q"


class TestPrimeField:
    def test_constants(self):
        f = GF(7)
        assert f.char == 7
        assert f.is_zero(f.zero)
        assert not f.is_zero(f.one)

    def test_inverse(self):
        f = GF(7)
        for a in range(1, 7):
            x = f.from_int(a)
            assert f.mul(x, f.inv(x)) == f.one

    def test_from_fraction_clears_denominator(self):
        f = GF(7)
        half = f.from_fraction(Fraction(1, 2))
        assert f.mul(half, f.from_int(2)) == f.one

    def test_from_fraction_bad_denominator(self):
        f = GF(7)
        with pytest.raises((ZeroDivisionError, ValueError)):
            f.from_fraction(Fraction(1, 7))

    # 2**64 - 59 is the largest prime below the modulus bound
    @pytest.mark.parametrize("p", [2, 7, 32003, 4294967311, 2**64 - 59])
    def test_from_fraction_matches_general_formula(self, p):
        # an integer skips the inverse; the general formula is num * den^(p-2)
        f = GF(p)
        nums = [0, 1, -1, 5, -5, p, -p, 3 * p, -3 * p, p - 1, 1 - p, p + 1, 2**70 + 1, -(2**70)]
        for fr in [Fraction(n, d) for n in nums for d in (1, 3, 5, 2 * p + 1)]:
            assert f.from_fraction(fr) == fr.numerator * pow(fr.denominator, p - 2, p) % p
        for fr in (Fraction(1, p), Fraction(-5, 3 * p), Fraction(p + 1, p * p)):
            with pytest.raises(ZeroDivisionError):
                f.from_fraction(fr)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(1)

    @pytest.mark.parametrize("p", [PSI_12, PSI_13, 2**64 + 13], ids=["psi12", "psi13", "prime"])
    def test_modulus_at_or_above_the_bound_refused(self, p):
        # psi12 and psi13 are strong pseudoprimes to the first twelve prime
        # bases; 2**64 + 13 is prime, and refused all the same
        with pytest.raises(ValueError, match=r"at or above the modulus bound 2\*\*64"):
            PrimeField(p)
        with pytest.raises(ValueError, match=r"2\*\*64"):
            parse_field_spec(f"p{p}")

    def test_cached(self):
        assert GF(7) is GF(7)
        assert GF(7) is not GF(11)

    def test_spec(self):
        assert GF(32003).spec == "p32003"


@given(
    a=st.integers(-20, 20),
    b=st.integers(-20, 20),
    c=st.integers(-20, 20),
)
def test_field_axioms_mod_p(a, b, c):
    f = GF(101)
    x, y, z = f.from_int(a), f.from_int(b), f.from_int(c)
    assert f.add(x, f.add(y, z)) == f.add(f.add(x, y), z)
    assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(x, f.neg(x)) == f.zero
    if not f.is_zero(x):
        assert f.mul(x, f.inv(x)) == f.one


@given(
    num=st.integers(-30, 30),
    den=st.integers(1, 30),
)
def test_rational_embedding_respects_ops(num, den):
    # The mod-p image of a fraction must satisfy den * image = num.
    f = GF(103)
    q = Fraction(num, den)
    img = f.from_fraction(q)
    assert f.mul(f.from_int(den), img) == f.from_int(num)


class TestFieldSpecParsing:
    def test_rationals(self):
        assert parse_field_spec("q") is QQ
        assert isinstance(parse_field_spec("q"), Rationals)

    def test_prime(self):
        f = parse_field_spec("p7")
        assert isinstance(f, PrimeField)
        assert f.char == 7

    # str.isdigit() holds for the Arabic-Indic and fullwidth sevens, which int() reads as 7
    @pytest.mark.parametrize(
        "bad", ["", "p", "p0", "p4", "7", "Q", "pabc", "p-3", "p\u0667", "p\uff17"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_field_spec(bad)


class TestDefaultPrime:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(PRIME_ENV_VAR, raising=False)
        assert default_prime() == DEFAULT_PRIME == 32003

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(PRIME_ENV_VAR, "101")
        assert default_prime() == 101

    def test_env_rejects_composite(self, monkeypatch):
        monkeypatch.setenv(PRIME_ENV_VAR, "100")
        with pytest.raises(ValueError):
            default_prime()

    def test_env_rejects_modulus_above_the_bound(self, monkeypatch):
        monkeypatch.setenv(PRIME_ENV_VAR, str(PSI_13))
        with pytest.raises(ValueError, match=rf"{PRIME_ENV_VAR}={PSI_13} is at or above"):
            default_prime()
