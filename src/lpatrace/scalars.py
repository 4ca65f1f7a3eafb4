"""Exact scalars: rationals, Gaussian rationals, and Laurent polynomials.

Coefficients live in an involutive field, either Q or Q(i), tagged on every
value so that mixed-field arithmetic is rejected instead of silently
coerced.  Rationals are stdlib ``fractions.Fraction`` (always reduced,
positive denominator), so structural equality is mathematical equality.

The involution is either the identity or complex conjugation.  Only
(Q, identity) and (Qi, conjugation) are positive definite; (Qi, identity)
is admitted so that its failure of positive definiteness can be exercised,
but positivity queries on it are errors.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

Q = "Q"
QI = "Qi"
FIELDS = (Q, QI)

IDENTITY = "identity"
CONJUGATION = "conjugation"
INVOLUTIONS = (IDENTITY, CONJUGATION)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class FieldElem:
    """An element of Q or Q(i), exact."""

    re: Fraction
    im: Fraction
    field: str

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field tag {self.field!r}")
        if self.field == Q and self.im != 0:
            raise ValueError("elements of Q must have zero imaginary part")

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(Fraction(other), Fraction(0), self.field)
        if not isinstance(other, FieldElem):
            return None
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.re + other.re, self.im + other.im, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.re - other.re, self.im - other.im, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FieldElem(-self.re, -self.im, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.field,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
            self.field,
        )

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"FieldElem({format_scalar(self)!r}, {self.field})"


def fe(re, im=0, field=Q) -> FieldElem:
    """Build a field element from ints or Fractions."""
    return FieldElem(_as_fraction(re), _as_fraction(im), field)


def fe_zero(field=Q) -> FieldElem:
    return FieldElem(Fraction(0), Fraction(0), field)


def fe_one(field=Q) -> FieldElem:
    return FieldElem(Fraction(1), Fraction(0), field)


def fe_i() -> FieldElem:
    return FieldElem(Fraction(0), Fraction(1), QI)


def check_involution(field: str, involution: str) -> None:
    """Reject unknown tags.  Conjugation on Q is allowed (it is the identity)."""
    if field not in FIELDS:
        raise ValueError(f"unknown field tag {field!r}")
    if involution not in INVOLUTIONS:
        raise ValueError(f"unknown involution tag {involution!r}")


def field_star(a: FieldElem, involution: str) -> FieldElem:
    """Apply the involution: identity, or negation of the imaginary part."""
    check_involution(a.field, involution)
    if involution == IDENTITY or a.field == Q:
        return a
    return FieldElem(a.re, -a.im, a.field)


def is_positive_definite(field: str, involution: str) -> bool:
    """Whether sum(x_i * x_i^*) = 0 forces every x_i = 0."""
    check_involution(field, involution)
    return field == Q or involution == CONJUGATION


def require_positive_definite(field: str, involution: str) -> None:
    from .errors import PreconditionError

    if not is_positive_definite(field, involution):
        raise PreconditionError(
            f"({field}, {involution}) is not positive definite; "
            "positivity is undefined in this configuration"
        )


def is_positive_nonzero(a: FieldElem, involution: str) -> bool:
    """Strict positivity in the cone of the involutive field.

    Valid only for positive definite (field, involution); there the
    positive elements are exactly the nonnegative rationals.
    """
    require_positive_definite(a.field, involution)
    return a.im == 0 and a.re > 0


def is_nonnegative(a: FieldElem, involution: str) -> bool:
    require_positive_definite(a.field, involution)
    return a.im == 0 and a.re >= 0


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial over a tagged field.

    `coeffs` is a tuple of (exponent, coefficient) pairs, sorted by
    exponent, with no zero coefficients; the empty tuple is zero.
    """

    field: str
    coeffs: tuple

    def coeff(self, k: int) -> FieldElem:
        for exp, c in self.coeffs:
            if exp == k:
                return c
        return fe_zero(self.field)

    def _check(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")

    def __add__(self, other):
        self._check(other)
        acc = dict(self.coeffs)
        for exp, c in other.coeffs:
            acc[exp] = acc[exp] + c if exp in acc else c
        return laurent(self.field, acc)

    def __neg__(self):
        return LaurentPoly(self.field, tuple((exp, -c) for exp, c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        acc = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                exp = e1 + e2
                prod = c1 * c2
                acc[exp] = acc[exp] + prod if exp in acc else prod
        return laurent(self.field, acc)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = [f"({format_scalar(c)})x^{exp}" for exp, c in self.coeffs]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def laurent(field: str, coeffs) -> LaurentPoly:
    """Build a Laurent polynomial from an {exponent: FieldElem} mapping."""
    items = []
    for exp, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
        if not isinstance(c, FieldElem):
            c = fe(c, 0, field)
        if c.field != field:
            raise ValueError(f"coefficient field {c.field} != {field}")
        if c:
            items.append((int(exp), c))
    items.sort(key=lambda t: t[0])
    return LaurentPoly(field, tuple(items))


def laurent_one(field=Q) -> LaurentPoly:
    return laurent(field, {0: fe_one(field)})


def laurent_x(field=Q, k=1, coeff=None) -> LaurentPoly:
    return laurent(field, {k: coeff if coeff is not None else fe_one(field)})


def laurent_star(p: LaurentPoly, involution: str) -> LaurentPoly:
    """(sum a_k x^k)^* = sum a_k^* x^(-k)."""
    return laurent(
        p.field, {-exp: field_star(c, involution) for exp, c in p.coeffs}
    )


def laurent_a0(p: LaurentPoly) -> FieldElem:
    """Degree-zero coefficient; the faithful trace on K[x, x^-1]."""
    return p.coeff(0)


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

_RATIONAL = r"-?\d+(?:/\d+)?"
_SCALAR_FULL_RE = _re.compile(
    rf"^(?P<re>{_RATIONAL})(?P<im>[+-]\d+(?:/\d+)?)i$"
)
_SCALAR_IMAG_RE = _re.compile(rf"^(?P<im>{_RATIONAL})i$")
_SCALAR_RAT_RE = _re.compile(rf"^(?P<re>{_RATIONAL})$")


def parse_scalar(text: str, field: str = Q) -> FieldElem:
    """Parse `a`, `a/b`, `a/b+c/di`, `a/b-c/di`, or `c/di`.

    Raises ParseError for malformed text or an imaginary part over Q.
    """
    from .errors import ParseError

    s = text.strip()
    m = _SCALAR_FULL_RE.match(s)
    if m:
        re_part, im_part = Fraction(m.group("re")), Fraction(m.group("im"))
    else:
        m = _SCALAR_IMAG_RE.match(s)
        if m:
            re_part, im_part = Fraction(0), Fraction(m.group("im"))
        else:
            m = _SCALAR_RAT_RE.match(s)
            if not m:
                raise ParseError(f"malformed scalar {text!r}")
            re_part, im_part = Fraction(m.group("re")), Fraction(0)
    if field == Q and im_part != 0:
        raise ParseError(f"imaginary scalar {text!r} not allowed over Q")
    return FieldElem(re_part, im_part, field)


def format_scalar(a: FieldElem) -> str:
    """Canonical text form; rationals as `a[/b]`, Gaussians as `a+bi`/`a-bi`."""
    if a.im == 0:
        return str(a.re)
    sign = "+" if a.im > 0 else "-"
    return f"{a.re}{sign}{abs(a.im)}i"
