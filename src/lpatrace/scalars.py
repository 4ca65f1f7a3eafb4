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
from fractions import Fraction
from math import gcd
from operator import index as _index

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


class _Frozen:
    """Base of the immutable values: setting or deleting an attribute
    raises.  Constructors fill the slots through their descriptors or
    `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FieldElem(_Frozen):
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


def _coerce(c, field: str) -> FieldElem:
    """`c` as an element of `field`: an int or Fraction is converted, and a
    FieldElem must already belong to `field`."""
    if isinstance(c, FieldElem):
        if c.field != field:
            raise ValueError(f"scalar field {c.field} != {field}")
        return c
    return FieldElem(c, 0, field)


def fe_zero(field=Q) -> FieldElem:
    return FieldElem(0, 0, field)


def fe_one(field=Q) -> FieldElem:
    return FieldElem(1, 0, field)


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
# Sparse terms
# ---------------------------------------------------------------------------


def add_terms(acc: dict, pairs) -> dict:
    """Add each (key, value) pair into `acc`, dropping keys whose sum is zero.

    Returns `acc`; a zero value in `pairs` leaves no key behind either.
    """
    for key, value in pairs:
        cur = acc.get(key)
        if cur is not None:
            value = cur + value
        if value:
            acc[key] = value
        elif cur is not None:
            del acc[key]
    return acc


class SparseTerms(_Frozen):
    """A finitely supported combination: `terms` is a dict without zeros.

    The value lives over a context that both operands of `+` and `-` must
    share: the field tag for `LaurentPoly`, the `PathAlgebra` for
    `AlgebraElement`, the `Decomposition` for `MatrixImage`, and None for
    `FreeVector`.  Each subclass reads the context under its own name and
    adds its own product, star and repr.  Equality and hashing ignore the
    order of the keys.
    """

    __slots__ = ("_context", "terms")
    _MIXED = ""  # the ValueError text for operands over different contexts

    def __init__(self, context, terms: dict):
        _set_context(self, context)
        _set_terms(self, terms)

    def __reduce__(self):
        return type(self), (self._context, self.terms)

    def _like(self, terms: dict):
        return type(self)(self._context, terms)

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other._context != self._context:
            raise ValueError(self._MIXED.format(self._context, other._context))

    def __add__(self, other):
        self._check(other)
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        self._check(other)
        negated = ((k, -v) for k, v in other.terms.items())
        return self._like(add_terms(dict(self.terms), negated))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        """Every value multiplied by the scalar `c` (on the left)."""
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._context == other._context and self.terms == other.terms

    def __hash__(self):
        return hash((self._context, frozenset(self.terms.items())))


_set_context = SparseTerms._context.__set__
_set_terms = SparseTerms.terms.__set__


class LaurentPoly(SparseTerms):
    """Sparse Laurent polynomial over a tagged field.

    `terms` maps exponents to nonzero coefficients; `coeffs` lists them as
    (exponent, coefficient) pairs sorted by exponent.  Zero has no terms.
    """

    __slots__ = ()
    field = SparseTerms._context
    _MIXED = "mixed fields: {} and {}"

    @property
    def coeffs(self) -> tuple:
        return tuple(sorted(self.terms.items()))  # exponents are distinct

    def coeff(self, k: int) -> FieldElem:
        c = self.terms.get(k)
        return fe_zero(self.field) if c is None else c

    def __mul__(self, other):
        self._check(other)
        products = (
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return LaurentPoly(self.field, add_terms({}, products))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        parts = [f"({format_scalar(c)})x^{exp}" for exp, c in self.coeffs]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def laurent(field: str, coeffs) -> LaurentPoly:
    """Build a Laurent polynomial from an {exponent: FieldElem} mapping or
    (exponent, coefficient) pairs, summing a repeated exponent's values;
    exponents are read with `operator.index` (a float is a TypeError)."""
    pairs = []
    for exp, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
        c = _coerce(c, field)
        pairs.append((_index(exp), c))
    return LaurentPoly(field, add_terms({}, pairs))


def laurent_star(p: LaurentPoly, involution: str) -> LaurentPoly:
    """(sum a_k x^k)^* = sum a_k^* x^(-k)."""
    return LaurentPoly(
        p.field, {-exp: field_star(c, involution) for exp, c in p.terms.items()}
    )


def laurent_a0(p: LaurentPoly) -> FieldElem:
    """Degree-zero coefficient; the faithful trace on K[x, x^-1]."""
    return p.coeff(0)


class FreeVector(SparseTerms):
    """Finitely supported vector in the free module on hashable keys.

    Its context is None.  Elements of the contracted semigroup ring are
    FreeVectors on the nonzero element indices; values of a minimal trace
    are FreeVectors on the nonzero classes.
    """

    __slots__ = ()

    def __repr__(self):
        return "FreeVector(" + ", ".join(f"{k!r}: {v!r}" for k, v in self.terms.items()) + ")"


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

# every format's unsigned scalar, in five groups: a rational, then a signed
# rational before `i`, or `i` alone (the first rational is then imaginary)
_SCALAR = r"([0-9]+)(?:/([0-9]+))?(?:([+-][0-9]+)(?:/([0-9]+))?i|(i))?"
_SCALAR_RE = _re.compile(rf"(-?){_SCALAR}")


def parse_scalar(text: str, field: str = Q) -> FieldElem:
    """Parse `a`, `a/b`, `a/b+c/di`, `a/b-c/di`, or `c/di`.

    Digits are ASCII.  Raises ParseError for malformed text, a zero
    denominator, an integer of more digits than `int()` converts (4300 by
    default), or an imaginary part over Q.  The checks run in the order
    `Fraction` would make them: the real part before the imaginary part,
    and within a part its integers before its denominator's zero test.
    """
    s = text.strip()
    m = _SCALAR_RE.fullmatch(s)
    if not m:
        raise ParseError(f"malformed scalar {text!r}")
    sign, num1, *parts = m.groups()
    return _scalar_value(sign + num1, *parts, field, text, s)


def _scalar_value(num1, den1, num2, den2, imaginary, field, text, s):
    """The scalar of the five groups of one `_SCALAR` match, `num1` perhaps
    signed; `text` is the scalar as given and `s` as matched, for errors."""
    a, d1 = _scalar_part(num1, den1, text, s)
    b, d2 = _scalar_part(num2, den2, text, s) if num2 else (0, 1)
    if imaginary:  # `c/di`: the only part is the imaginary one
        a, b, d1, d2 = 0, a, 1, d1
    if field == Q and b:
        raise ParseError(f"imaginary scalar {text!r} not allowed over Q")
    if field not in FIELDS:
        raise ValueError(f"unknown field tag {field!r}")
    return _make(a * d2, b * d1, d1 * d2, field)


def _scalar_part(num: str, den, text: str, s: str) -> tuple:
    """(numerator, denominator) of one part of the scalar `text` (`s` stripped)."""
    try:
        n, d = int(num), int(den) if den else 1
    except ValueError:  # an integer past CPython's int_max_str_digits
        raise ParseError(
            f"scalar {s[:20] + '...'!r} ({len(s)} characters) has an integer "
            f"of more than {_sys.get_int_max_str_digits()} digits"
        ) from None
    if not d:
        raise ParseError(f"zero denominator in scalar {text!r}")
    return n, d


def natural_numbers(words: list) -> list:
    """The values of `words` if each is ASCII digits `[0-9]+` of at most
    `sys.get_int_max_str_digits()` digits; else ValueError naming the rule.

    `int()` also accepts signs, underscores, spaces and non-ASCII digits.
    The words are checked together, as one Cayley row has many.
    """
    joined = "".join(words)
    if not (joined.isascii() and joined.isdigit() and all(words)):
        raise ValueError("must be ASCII digits [0-9]+")
    try:
        return list(map(int, words))
    except ValueError:  # an integer past CPython's int_max_str_digits
        raise ValueError(
            f"must have at most {_sys.get_int_max_str_digits()} digits"
        ) from None


def format_scalar(a: FieldElem) -> str:
    """Canonical text form; rationals as `a[/b]`, Gaussians as `a+bi`/`a-bi`.

    Raises PreconditionError when an integer of the value has more digits
    than `str()` writes (4300 by default); the limit is not raised, since
    it is global to the interpreter.
    """
    try:
        if a.im == 0:
            return str(a.re)
        sign = "+" if a.im > 0 else "-"
        return f"{a.re}{sign}{abs(a.im)}i"
    except ValueError:  # an integer past CPython's int_max_str_digits
        digits = max(_digit_count(n) for n in a._v[:3])
        raise PreconditionError(
            f"result has an integer of {digits} digits; at most "
            f"{_sys.get_int_max_str_digits()} can be written"
        ) from None


def _digit_count(n: int) -> int:
    """Decimal digits of |n|, counted without `str()`."""
    n = abs(n)
    # a lower bound, as 0.30102999 < log10(2), then counted up
    d = (n.bit_length() - 1) * 30102999 // 10**8 + 1
    while n >= 10**d:
        d += 1
    return d
