"""Exact traces on contracted semigroup rings, Cohn path algebras, and
Leavitt path algebras of finite graphs."""

from types import ModuleType as _ModuleType

from .errors import ParseError, PreconditionError
from .scalars import (
    CONJUGATION,
    FieldElem,
    IDENTITY,
    LaurentPoly,
    Q,
    QI,
    fe,
    fe_one,
    fe_zero,
    field_star,
    format_scalar,
    is_positive_definite,
    is_positive_nonzero,
    laurent,
    laurent_a0,
    laurent_star,
    parse_scalar,
)
from .graphs import (
    Graph,
    PathSeq,
    cycles,
    edge_path,
    infinite_paths_tame,
    is_no_exit,
    parse_graph,
    paths_into,
    regular_vertices,
    sinks,
    vertex_path,
)
from .gis import (
    GIS_ZERO,
    CycleWord,
    CycleWordStar,
    MonPair,
    VertexClass,
    ZeroClass,
    approx_canonical,
    classify_eq,
    gis_mul,
    gis_star,
)
from .semigroups import (
    CentralMap,
    FiniteSemigroup,
    FreeVector,
    admits_normalized_minimal,
    build_semigroup,
    central_map,
    endo_semigroup,
    group_with_zero,
    in_commutator_span,
    is_central_map,
    is_minimal_sg_trace,
    matrix_unit_index,
    matrix_units_semigroup,
    minimal_trace,
    parse_cayley,
    sg_element,
    sg_mul,
    sg_trace_eval,
    sim_classes,
    sim_witness_chain,
)
from .path_algebras import (
    COHN,
    LEAVITT,
    AlgebraElement,
    PathAlgebra,
    alg_star,
    parse_element,
    transfer,
)
from .traces import (
    TraceSpec,
    augmentation_trace,
    build_faithful_trace,
    faithful_trace_exists,
    is_minimal_cohn,
    kaplansky_trace,
    minimal_trace_cohn,
    parse_trace_spec,
    positivity_screen,
    trace_eval,
    trace_spec,
    validate_trace_spec,
    vertex_trace_space,
)
from .structure import (
    Decomposition,
    MatrixImage,
    decompose,
    decomposition_report,
    phi,
    phi_inverse_unit,
    pull_back_trace,
)

# the public names, without the submodules that the imports above bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
