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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """The rationals (``char == 0``) or the prime field of order ``char``."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
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
        """Coerce an int, Fraction or "p/q" string into a scalar."""
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
