"""Exact scalar arithmetic over the rationals and over prime fields.

In characteristic 0 a scalar is a plain ``int`` when it is integral and a
``fractions.Fraction`` with denominator above 1 otherwise; in characteristic
``p`` it is an int in ``range(p)``.  A :class:`Field` descriptor supplies the
arithmetic, and keeps that form, so that all higher layers stay
field-agnostic.  Since ``Fraction(n) == n`` and both hash alike, subspaces,
equality and formatting do not depend on which of the two forms a rational
integer takes.
"""

from __future__ import annotations

from fractions import Fraction


def _q(x):
    """A rational in integer-first form: an int when integral."""
    return x.numerator if x.denominator == 1 else x


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller–Rabin on the first twelve prime bases: exact below 3.18·10²³,
    far above the characteristics a ``Field`` accepts (below 2**64)."""
    if p < 2 or any(p % b == 0 for b in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p − 1 = d·2^s with d odd
    for b in _WITNESSES:
        x = pow(b, (p - 1) >> s, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``char == 0``) or the prime field of order ``char``."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char >= 2 ** 64:
            raise ValueError(f"characteristic must be below 2**64, got {char}")
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    @property
    def name(self) -> str:
        return "q" if self.char == 0 else f"p:{self.char}"

    # -- construction -----------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """Coerce an int, Fraction or "p/q" string into a scalar; ValueError
        on a denominator that is zero in the field, as on any unreadable value."""
        try:
            if self.char == 0:
                return x if type(x) is int else _q(Fraction(x))
            if isinstance(x, str):
                if "/" in x:
                    num, den = x.split("/")
                    return self.div(int(num) % self.char, int(den) % self.char)
                x = int(x)
            if isinstance(x, Fraction):
                return self.div(x.numerator % self.char, x.denominator % self.char)
            return int(x) % self.char
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator in {self.name}") from None

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return _q(a + b) if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return _q(a - b) if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return _q(a * b) if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return _q(-a) if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.char == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return _q(Fraction(a.denominator, a.numerator))
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    # -- formatting ---------------------------------------------------------

    def fmt(self, a) -> str:
        """Canonical string form, round-trippable through :meth:`coerce`."""
        if self.char == 0:
            return str(a)
        return str(a % self.char)


QQ = Field(0)


def field_from_name(name: str) -> Field:
    """Parse ``"q"`` or ``"p:PRIME"`` into a field descriptor."""
    if name == "q":
        return Field(0)
    if name.startswith("p:") and name[2:].isdecimal() and int(name[2:]) > 0:
        return Field(int(name[2:]))  # which rejects a non-prime
    raise ValueError(f"unknown field name {name!r} (expected 'q' or 'p:PRIME')")
