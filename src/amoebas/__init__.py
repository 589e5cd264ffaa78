"""Exact tropicalizations and adelic amoebas of Laurent hypersurfaces.

The engine computes, in exact rational arithmetic, the tropicalization of a
hypersurface over Q or Q(z) at any nonarchimedean place, assembles the
adelic amoeba (generic normal-fan skeleton plus finitely many special
places), intersects pulled-back tropicalizations into prevarieties, answers
archimedean membership queries with certificates, and decides whether a
rational open halfspace meets the adelic amoeba, verifying the structural
conclusion that disjointness forces.
"""

from .errors import (
    AmoebaError,
    ArchimedeanNotSupported,
    CornerLocusTooLarge,
    DegenerateSlice,
    DependentDirection,
    DimensionMismatch,
    EmptyPolynomial,
    EmptySystem,
    ExpansionTooLarge,
    ExponentSpreadTooLarge,
    FactorizationTooLarge,
    FieldMismatch,
    InvalidPlace,
    MissingImagePresentation,
    MonomialInput,
    PlaceFieldMismatch,
    PointTooLarge,
    PolySyntaxError,
    RankMismatch,
    RankTooLarge,
    TermCountMismatch,
    ZeroInput,
)
from .scalars import (
    ARCH,
    FF_INFINITY,
    FIELD_Q,
    FIELD_QZ,
    GENERIC,
    ArchimedeanQ,
    FiniteIrreducible,
    FinitePrime,
    FunctionFieldInfinity,
    GenericPlace,
    Poly,
    RationalFunction,
    log_abs,
    place_from_str,
    place_to_str,
    product_formula_residual,
    valuation,
    valuations,
)
from .laurent import (
    LaurentPoly,
    bad_places,
    make_laurent,
    parse_poly,
    poly_to_json,
)
from .polyhedral import (
    Cell,
    LPInfeasible,
    LPOptimal,
    LPUnbounded,
    Polyhedron,
    PolyhedralComplex,
    complex_to_json,
    lp_solve,
    make_complex,
    polyhedron,
    preimage,
)
from .tropical import (
    AdelicAmoeba,
    Constraint,
    PrevarietySystem,
    TropicalData,
    adelic_amoeba,
    prevariety,
    trop_hypersurface,
)
from .archimedean import sampled_inside
from .classify import (
    AdelicReport,
    EklReport,
    Halfspace,
    TheoremReport,
    adelic_disjoint,
    defined_over_k_test,
    ekl_consistency_check,
    halfspace_meets_complex,
    theorem1_report,
    torsion_coset_test,
)

__version__ = "0.1.0"
