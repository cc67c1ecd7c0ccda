"""dq-kit: exact symbolic toolkit for truncated star products, Poisson and
Lie-algebroid calculus, and quasi-classical data checks on polynomial models."""

from .kernel import Poly, TPoly
from .calculus import (
    Form,
    MultiVec,
    anchor,
    anchor_pullback,
    exterior_d,
    interior,
    lie_derivative,
    schouten,
    wedge,
)
from .diffop import (
    PolyDiffOp,
    apply_op,
    cocycle_defect,
    compose_into_slot,
    hochschild_delta,
    transpose_parts,
)
from .poisson import (
    EPSILON,
    bracket,
    hamiltonian,
    is_poisson,
    jacobiator,
    koszul_bracket,
    lichnerowicz_d,
)
from .liealgebroid import (
    AlgebroidForm,
    AlgebroidPresentation,
    ExtensionData,
    algebroid_d,
    check_algebroid,
    extension_curvature,
    from_poisson,
    line_curvature,
    unit_shift,
)
from .starprod import (
    BimoduleModel,
    GaugeOp,
    Sigma1,
    StarProduct,
    ad_exp,
    assoc_defect,
    assoc_poisson,
    contravariant_nabla,
    gauge_transform,
    invert_gauge,
    is_associative,
    is_special,
    moyal,
    nabla_curvature,
    sigma1_act,
    sigma1_class,
    sigma1_of_ad,
    specialize,
    star_mul,
    subprincipal,
)
from .qclimit import KappaResult, QCData, kappa, mc_defect
from .parser import Document, parse_document, parse_poly, poly_to_text, serialize_document

__version__ = "0.1.0"

__all__ = [
    "Poly", "TPoly",
    "Form", "MultiVec", "anchor", "anchor_pullback", "exterior_d", "interior",
    "lie_derivative", "schouten", "wedge",
    "PolyDiffOp", "apply_op", "cocycle_defect", "compose_into_slot",
    "hochschild_delta", "transpose_parts",
    "EPSILON", "bracket", "hamiltonian", "is_poisson",
    "jacobiator", "koszul_bracket", "lichnerowicz_d",
    "AlgebroidForm", "AlgebroidPresentation", "ExtensionData", "algebroid_d",
    "check_algebroid", "extension_curvature", "from_poisson", "line_curvature",
    "unit_shift",
    "BimoduleModel", "GaugeOp", "Sigma1", "StarProduct", "ad_exp",
    "assoc_defect", "assoc_poisson", "contravariant_nabla", "gauge_transform",
    "invert_gauge", "is_associative", "is_special", "moyal", "nabla_curvature",
    "sigma1_act", "sigma1_class", "sigma1_of_ad", "specialize", "star_mul",
    "subprincipal",
    "KappaResult", "QCData", "kappa", "mc_defect",
    "Document", "parse_document", "parse_poly", "poly_to_text", "serialize_document",
]
