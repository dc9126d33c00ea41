"""Exact toolkit for logarithmic connections on equivariant toric bundles.

The package decides, by explicit Cech linear algebra over exact rationals,
whether bundle transition data on a toric variety admits a logarithmic
connection — equivalently, an equivariant structure — and computes the
attendant objects: obstruction cocycles, residues along the boundary
divisors, equivariant Chern data, and splitting cochains.
"""

from .bundles import (
    EigenSection,
    EquivariantData,
    ResidueMatrix,
    UnderdeterminedError,
    apply_nabla,
    check_compatibility,
    chern_pp,
    connection_form,
    elementary_symmetric,
    invariant_section,
    recover_weights,
    residue,
    residue_chern_check,
)
from .cocycles import (
    MatrixCocycle,
    TransitionData,
    atiyah_cocycle,
    check_cocycle_pipelines,
    check_frame_antisymmetry,
    check_triple_identity,
    obstruction_cocycle,
    transitions_from_one_sided,
    validate_transitions,
)
from .fans import (
    Cone,
    DimensionError,
    Fan,
    FanCheck,
    build_fan,
    cone_is_smooth,
    hirzebruch_fan,
    pairing,
    primitivize,
    product_p1_fan,
    projective_fan,
    validate_fan,
)
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    NotAUnitError,
    SingularMatrixError,
    VField,
    bracket,
    chart_member,
    conjugations,
    constant_product,
    delta_apply,
    delta_products,
    in_chart,
    matrix_delta,
    matrix_det,
    matrix_inverse_unit,
    vanishing,
)
from .splitting import (
    InconsistentSplittingError,
    MatrixCochain,
    SplitResult,
    WeightCapError,
    connection_from_splitting,
    equivariance_verdict,
    equivariant_splitting,
    split_cocycle,
    verify_splitting,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
