"""Documented raises that no other test reaches: each call's exception type
and full message text."""

import pytest

from lpatrace.errors import ParseError, PreconditionError
from lpatrace.gis import MonPair
from lpatrace.graphs import edge_path, parse_graph, paths_into, vertex_path
from lpatrace.path_algebras import COHN, LEAVITT, PathAlgebra
from lpatrace.scalars import CONJUGATION, IDENTITY, QI, Q, check_involution, parse_scalar
from lpatrace.semigroups import (
    build_semigroup,
    group_with_zero,
    is_central_map,
    matrix_unit_index,
    matrix_units_semigroup,
    parse_cayley,
)
from lpatrace.structure import decompose, phi, phi_inverse_unit, pull_back_trace
from lpatrace.traces import trace_spec

from conftest import GRAPH_TEXTS, GRAPHS, outcome

LINE = GRAPHS["line2"]
DEC = decompose(LINE)
LEAVITT_Q = PathAlgebra(LINE, Q, IDENTITY, LEAVITT)
OTHER = parse_graph("v z\nv b\nv q\ne zz z b")

CASES = [
    ("phi-different_graph",
     lambda: phi(DEC, PathAlgebra(parse_graph(GRAPH_TEXTS["line2"])).one()),
     ValueError, "element is over a different graph"),
    ("phi-not_Leavitt_mode",
     lambda: phi(DEC, PathAlgebra(LINE, Q, IDENTITY, COHN).one()),
     ValueError, "phi expects Leavitt-mode elements"),
    ("expand_monomial-path_not_in_the_graph",
     lambda: DEC.expand_monomial(MonPair(edge_path(OTHER, ["zz"]), vertex_path(LINE, "b"))),
     PreconditionError, "monomial MonPair(zz.b') not expressible in the block families"),
    ("expand_monomial-range_not_a_vertex",
     lambda: DEC.expand_monomial(MonPair(vertex_path(OTHER, "q"), vertex_path(OTHER, "q"))),
     PreconditionError, "monomial MonPair(q.q') not expressible in the block families"),
    ("phi_inverse_unit-block_out_of_range",
     lambda: phi_inverse_unit(DEC, LEAVITT_Q, 1, 0, 0),
     ValueError, "block index 1 out of range"),
    ("pull_back_trace-field_mismatch",
     lambda: pull_back_trace(DEC, QI, CONJUGATION)(LEAVITT_Q.one()),
     ValueError, "element field does not match the trace"),
    ("trace_spec-unknown_vertex",
     lambda: trace_spec(LINE, Q, IDENTITY, vertex_values={"z": 1}),
     ValueError, "unknown vertex 'z'"),
    ("paths_into-unknown_vertex",
     lambda: paths_into(LINE, "z"),
     ValueError, "unknown vertex 'z'"),
    ("edge_path-empty_sequence",
     lambda: edge_path(LINE, []),
     ValueError, "empty edge sequence; use vertex_path"),
    ("rewrite_step-not_a_redex",
     lambda: LEAVITT_Q.rewrite_step(MonPair(vertex_path(LINE, "a"), vertex_path(LINE, "a"))),
     ValueError, "monomial is not a redex"),
    ("check_involution-unknown_involution_tag",
     lambda: check_involution(Q, "transpose"),
     ValueError, "unknown involution tag 'transpose'"),
    ("parse_scalar-unknown_field_tag",
     lambda: parse_scalar("1/2", "R"),
     ValueError, "unknown field tag 'R'"),
    ("build_semigroup-empty_table",
     lambda: build_semigroup([], 0),
     ValueError, "empty table"),
    ("parse_cayley-empty_file",
     lambda: parse_cayley("# nothing\n\n"),
     ParseError, "empty Cayley file"),
    ("matrix_units_semigroup-n_lt_1",
     lambda: matrix_units_semigroup(0),
     ValueError, "n must be positive"),
    ("matrix_unit_index-out_of_range",
     lambda: matrix_unit_index(2, 3, 1),
     ValueError, "matrix unit index out of range"),
    ("group_with_zero-non-square_table",
     lambda: group_with_zero([[0, 1]]),
     ValueError, "group table must be square and nonempty"),
    ("is_central_map-wrong_length",
     lambda: is_central_map(matrix_units_semigroup(1), [0]),
     ValueError, "value table must cover every element"),
]


@pytest.mark.parametrize("call, exc_type, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_documented_raise(call, exc_type, message):
    assert outcome(call) == (exc_type, message)


def test_group_with_zero_labels_follow_the_zero():
    G = group_with_zero([[0, 1], [1, 0]], labels=["e", "g"])
    assert G.labels == ("0", "e", "g")
    assert G.mul(2, 2) == 1 and G.mul(0, 2) == 0
