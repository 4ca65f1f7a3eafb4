"""Reprs, immutability guards and small branches that no other test runs:
the text or value of each call, or its exception type and full message.
`python tools/uncovered.py` lists what the suite still never runs."""

import sys
from fractions import Fraction

import pytest

from lpatrace.errors import PreconditionError
from lpatrace.gis import GIS_ZERO, MonPair
from lpatrace.graphs import Graph, edge_path, vertex_path
from lpatrace.path_algebras import PathAlgebra, format_element
from lpatrace.scalars import Q, fe, format_scalar, laurent
from lpatrace.semigroups import (
    FreeVector,
    central_map,
    matrix_units_semigroup,
)
from lpatrace.structure import decompose
from lpatrace.traces import ScreenViolation

from conftest import GRAPHS, outcome

LINE = GRAPHS["line2"]
POLY = laurent(Q, {1: fe(2)})
VECTOR = FreeVector(None, {"p": fe(Fraction(1, 2)), "q": fe(-3)})
MU2 = matrix_units_semigroup(2)
ONE = fe(1)

CASES = [
    ("SparseTerms.__setattr__", lambda: setattr(POLY, "terms", {}),
     (AttributeError, "LaurentPoly is immutable")),
    ("SparseTerms.__delattr__", lambda: delattr(VECTOR, "terms"),
     (AttributeError, "FreeVector is immutable")),
    ("FieldElem.__setattr__", lambda: setattr(ONE, "_v", (2, 0, 1, Q)),
     (AttributeError, "FieldElem is immutable")),
    ("FieldElem.__delattr__", lambda: delattr(ONE, "_v"),
     (AttributeError, "FieldElem is immutable")),
    ("FiniteSemigroup.__setattr__", lambda: setattr(MU2, "zero", 1),
     (AttributeError, "FiniteSemigroup is immutable")),
    ("FiniteSemigroup.__delattr__", lambda: delattr(MU2, "table"),
     (AttributeError, "FiniteSemigroup is immutable")),
    ("SparseTerms.__eq__-other_type", lambda: POLY.__eq__(VECTOR),
     ("ok", NotImplemented)),
    ("FiniteSemigroup.__eq__-other_type", lambda: MU2.__eq__(MU2.table),
     ("ok", NotImplemented)),
    ("format_element-zero", lambda: format_element(PathAlgebra(LINE).zero()),
     ("ok", "0")),
    ("format_scalar-power_of_ten_past_the_limit", lambda: format_scalar(fe(10**4300)),
     (PreconditionError, "result has an integer of 4301 digits; at most "
      f"{sys.get_int_max_str_digits()} can be written")),
    ("CentralMap.__call__", lambda: central_map(MU2, [fe(0)] * MU2.size)(1),
     ("ok", fe(0))),
    ("repr-Graph", lambda: repr(LINE),
     ("ok", "Graph(2 vertices, 1 edges)")),
    ("repr-PathAlgebra", lambda: repr(PathAlgebra(LINE)),
     ("ok", "PathAlgebra(leavitt, Q, identity)")),
    ("repr-MonPair", lambda: repr(MonPair(edge_path(LINE, ["f"]), vertex_path(LINE, "b"))),
     ("ok", "MonPair(f.b')")),
    ("repr-GIS_ZERO", lambda: repr(GIS_ZERO),
     ("ok", "GIS_ZERO")),
    ("repr-Decomposition", lambda: repr(decompose(GRAPHS["mixed"])),
     ("ok", "Decomposition(M_2(K), M_2(K), M_2(K[x,x^-1]))")),
    ("repr-Decomposition_sinks_only", lambda: repr(decompose(Graph(["a", "b"], []))),
     ("ok", "Decomposition(M_1(K), M_1(K))")),
    ("repr-Decomposition_one_loop", lambda: repr(decompose(GRAPHS["one_loop"])),
     ("ok", "Decomposition(M_1(K[x,x^-1]))")),
    ("repr-Decomposition_empty", lambda: repr(decompose(Graph([], []))),
     ("ok", "Decomposition()")),
    ("repr-LaurentPoly_zero", lambda: repr(laurent(Q, {})),
     ("ok", "LaurentPoly(0)")),
    ("repr-FreeVector", lambda: repr(VECTOR),
     ("ok", "FreeVector('p': FieldElem('1/2', Q), 'q': FieldElem('-3', Q))")),
    ("repr-ScreenViolation", lambda: repr(ScreenViolation(3, ("a",), "t(a) is too small")),
     ("ok", "ScreenViolation(3, t(a) is too small)")),
]


@pytest.mark.parametrize("call, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_text_or_raise(call, expected):
    assert outcome(call) == expected
