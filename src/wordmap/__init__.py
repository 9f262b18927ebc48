"""Exact word-map arithmetic on SL2/SLn: adjugate extensions, trace probes,
jet-rank dominance probes and dimension certificates for representation-variety
components, and the orthogonal-A1 root-system search."""

from .errors import (
    DegenerateLambda,
    DimensionMismatch,
    EmptyInnerWord,
    InvalidParams,
    InvalidType,
    NotInvertible,
    RingLacksRoots,
    RingMismatch,
    UnboundConstant,
    WordSyntaxError,
    WordmapError,
    ZeroExponent,
)
from .rings import (
    PrimeField,
    QuadraticExt,
    Rationals,
    RingDescriptor,
    Scalar,
    parse_ring,
    parse_scalar,
    primitive_root_of_unity,
    render_scalar,
    sqrt_in_ring,
)
from .matrices import (
    SquareMatrix,
    charpoly,
    det,
    matrix_from_json,
    matrix_to_json,
    random_sl2,
    rank,
)
from .words import (
    ConstLetter,
    ExponentData,
    Power,
    Word,
    exponent_data,
    parse,
    render,
    word,
)
from .evaluate import (
    ProbeResult,
    ProbeVerdict,
    RestrictionCheck,
    check_restriction_identities,
    chi_probe,
    dominance_probe,
    eval_adjugate_extension,
    eval_group,
    jet_sweep,
)
from .geometry import (
    COMPONENT_IDS,
    ComponentInstance,
    DimensionCertificate,
    FiberMembership,
    JetJacobian,
    Lemma78Report,
    Lemma101Report,
    RelationScanResult,
    component,
    dimension_certificate,
    jet_jacobian,
    lemma78_check,
    lemma101_check,
    parametrization_rank,
    relation_scan,
    separation_witness,
    trace_preimage_commutator,
)
from .rootsys import (
    RootSystem,
    StarResult,
    TableRow,
    build,
    expected_star,
    star_search,
    verify_lemma_table,
    verify_witness,
)

__version__ = "0.1.0"
