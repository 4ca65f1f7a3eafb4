"""Exact scalars: rationals, Gaussian rationals, and Laurent polynomials.

Coefficients live in an involutive field, either Q or Q(i), tagged on every
value so that mixed-field arithmetic is rejected instead of silently
coerced.  A scalar is stored as an integer triple (a, b, d) meaning
(a + b i) / d, kept reduced: d > 0 and gcd(a, b, d) = 1.  Every value has
exactly one such triple, so structural equality is mathematical equality;
over Q, b is always 0.  The real and imaginary parts are read back as
reduced ``fractions.Fraction``s.

The involution is either the identity or complex conjugation.  Only
(Q, identity) and (Qi, conjugation) are positive definite; (Qi, identity)
is admitted so that its failure of positive definiteness can be exercised,
but positivity queries on it are errors.
"""

from __future__ import annotations

import re as _re
import sys as _sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParseError, PreconditionError

Q = "Q"
QI = "Qi"
FIELDS = (Q, QI)

IDENTITY = "identity"
CONJUGATION = "conjugation"
INVOLUTIONS = (IDENTITY, CONJUGATION)


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FieldElem:
    """An element of Q or Q(i), exact and immutable.

    Construct from real and imaginary parts (ints or Fractions) and a field
    tag; `re` and `im` read them back as reduced Fractions.
    """

    __slots__ = ("_v",)  # (a, b, d, field): the value (a + b i) / d, reduced

    def __init__(self, re, im, field):
        if field not in FIELDS:
            raise ValueError(f"unknown field tag {field!r}")
        (n1, d1), (n2, d2) = _ratio(re), _ratio(im)
        if field == Q and n2:
            raise ValueError("elements of Q must have zero imaginary part")
        # over d = lcm(d1, d2) the triple is already reduced: both parts
        # are in lowest terms, so no prime divides a, b and d together
        d = d1 * d2 // gcd(d1, d2)
        _set(self, (n1 * (d // d1), n2 * (d // d2), d, field))

    @property
    def re(self) -> Fraction:
        a, _, d, _ = self._v
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d, _ = self._v
        return Fraction(b, d)

    @property
    def field(self) -> str:
        return self._v[3]

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElem is immutable")

    def __reduce__(self):
        return _make, self._v

    def __eq__(self, other):
        if type(other) is not FieldElem:
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __add__(self, other):
        a, b, d, field = self._v
        v = other._v if type(other) is FieldElem else _operand(other, field)
        if v is None:
            return NotImplemented
        c, e, f, other_field = v
        if other_field != field:
            raise ValueError(f"mixed fields: {field} and {other_field}")
        if d == f:
            return _make(a + c, b + e, d, field)
        return _make(a * f + c * d, b * f + e * d, d * f, field)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d, field = self._v
        v = other._v if type(other) is FieldElem else _operand(other, field)
        if v is None:
            return NotImplemented
        c, e, f, other_field = v
        if other_field != field:
            raise ValueError(f"mixed fields: {field} and {other_field}")
        if d == f:
            return _make(a - c, b - e, d, field)
        return _make(a * f - c * d, b * f - e * d, d * f, field)

    def __rsub__(self, other):
        a, b, d, field = self._v
        v = _operand(other, field)
        if v is None:
            return NotImplemented
        c, e, f, _ = v
        return _make(c * d - a * f, e * d - b * f, d * f, field)

    def __neg__(self):
        a, b, d, field = self._v
        return _make(-a, -b, d, field)

    def __mul__(self, other):
        a, b, d, field = self._v
        v = other._v if type(other) is FieldElem else _operand(other, field)
        if v is None:
            return NotImplemented
        c, e, f, other_field = v
        if other_field != field:
            raise ValueError(f"mixed fields: {field} and {other_field}")
        if b or e:
            return _make(a * c - b * e, a * e + b * c, d * f, field)
        return _make(a * c, 0, d * f, field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d, field = self._v
        v = other._v if type(other) is FieldElem else _operand(other, field)
        if v is None:
            return NotImplemented
        c, e, f, other_field = v
        if other_field != field:
            raise ValueError(f"mixed fields: {field} and {other_field}")
        # (a + b i)/d divided by (c + e i)/f is (a + b i)(c - e i) f / (d (c^2 + e^2))
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero field element")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, d * norm, field)

    def __bool__(self):
        return bool(self._v[0] or self._v[1])

    def __repr__(self):
        return f"FieldElem({format_scalar(self)!r}, {self.field})"


_new = object.__new__
_set = FieldElem._v.__set__


def _make(a: int, b: int, d: int, field: str) -> FieldElem:
    """The unchecked constructor: reduce (a + b i)/d, given d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _new(FieldElem)
    _set(x, (a, b, d, field))
    return x


def _operand(x, field: str):
    """The (a, b, d, field) value of an int or Fraction operand, else None."""
    if isinstance(x, int):
        return x, 0, 1, field
    if isinstance(x, Fraction):
        return FieldElem(x, 0, field)._v
    return None


def fe(re, im=0, field=Q) -> FieldElem:
    """Build a field element from ints or Fractions."""
    return FieldElem(re, im, field)


def fe_zero(field=Q) -> FieldElem:
    return FieldElem(0, 0, field)


def fe_one(field=Q) -> FieldElem:
    return FieldElem(1, 0, field)


def fe_i() -> FieldElem:
    return FieldElem(0, 1, QI)


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
    re, im, d, field = a._v
    return _make(re, -im, d, field)


def is_positive_definite(field: str, involution: str) -> bool:
    """Whether sum(x_i * x_i^*) = 0 forces every x_i = 0."""
    check_involution(field, involution)
    return field == Q or involution == CONJUGATION


def require_positive_definite(field: str, involution: str) -> None:
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

_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"  # ASCII digits only
_SCALAR_FULL_RE = _re.compile(
    rf"^(?P<re>{_RATIONAL})(?P<im>[+-][0-9]+(?:/[0-9]+)?)i$"
)
_SCALAR_IMAG_RE = _re.compile(rf"^(?P<im>{_RATIONAL})i$")
_SCALAR_RAT_RE = _re.compile(rf"^(?P<re>{_RATIONAL})$")


def parse_scalar(text: str, field: str = Q) -> FieldElem:
    """Parse `a`, `a/b`, `a/b+c/di`, `a/b-c/di`, or `c/di`.

    Digits are ASCII.  Raises ParseError for malformed text, a zero
    denominator, an integer of more digits than `int()` converts (4300 by
    default), or an imaginary part over Q.
    """
    s = text.strip()
    m = _SCALAR_FULL_RE.match(s) or _SCALAR_IMAG_RE.match(s) or _SCALAR_RAT_RE.match(s)
    if not m:
        raise ParseError(f"malformed scalar {text!r}")
    parts = m.groupdict()
    try:
        re_part, im_part = Fraction(parts.get("re", 0)), Fraction(parts.get("im", 0))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError:  # an integer past CPython's int_max_str_digits
        raise ParseError(
            f"scalar {s[:20] + '...'!r} ({len(s)} characters) has an integer "
            f"of more than {_sys.get_int_max_str_digits()} digits"
        ) from None
    if field == Q and im_part != 0:
        raise ParseError(f"imaginary scalar {text!r} not allowed over Q")
    return FieldElem(re_part, im_part, field)


def format_scalar(a: FieldElem) -> str:
    """Canonical text form; rationals as `a[/b]`, Gaussians as `a+bi`/`a-bi`."""
    if a.im == 0:
        return str(a.re)
    sign = "+" if a.im > 0 else "-"
    return f"{a.re}{sign}{abs(a.im)}i"
