"""Curvature and soliton structure of metric Lie algebras.

Core objects: sparse skew brackets (:class:`AlgebraTensor`), metric
reductive decompositions g = k + h + n (:class:`MetricDecomposition`),
soliton certificates Ric = c I + S(D_p), stratum labels beta from
minimum-norm points in weight hulls, and the semidirect constructions that
move between solitons and Einstein metrics.
"""

from .catalog import CATALOG, CatalogEntry, ladder
from .constructions import (
    BuildResult,
    ConstructionData,
    ConstructionError,
    assemble_semidirect,
    build_semidirect,
    einstein_extension_unimodular,
    einstein_from_nonunimodular,
    restrict_to_unimodular_kernel,
    validate_construction,
)
from .decomposition import (
    BracketBlocks,
    DecompositionError,
    MetricDecomposition,
    SymOperator,
    Violation,
    decompose,
)
from .io import AlgebraDocument, DocumentError, Report, load, validate
from .soliton import (
    SolitonCertificate,
    StructureBatteryReport,
    algebraic_soliton_equivalences,
    f_operator_check,
    nilsoliton_fit,
    soliton_fit,
    stratum_compatibility_check,
    structure_battery,
)
from .strata import (
    MinNormResult,
    PairingReport,
    StratumData,
    e_beta_pairing,
    min_norm_point,
    pair_weight,
    strata_properties,
    stratum_label,
)
from .tensor import (
    AlgebraTensor,
    Check,
    derivation_algebra,
    jacobi_residual,
    moment_map,
    moment_operator,
    nilpotency_class,
    pi_action,
    tensor_inner,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraDocument",
    "AlgebraTensor",
    "BracketBlocks",
    "BuildResult",
    "CATALOG",
    "CatalogEntry",
    "Check",
    "ConstructionData",
    "ConstructionError",
    "DecompositionError",
    "DocumentError",
    "MetricDecomposition",
    "MinNormResult",
    "PairingReport",
    "Report",
    "SolitonCertificate",
    "StratumData",
    "StructureBatteryReport",
    "SymOperator",
    "Violation",
    "algebraic_soliton_equivalences",
    "assemble_semidirect",
    "build_semidirect",
    "decompose",
    "derivation_algebra",
    "e_beta_pairing",
    "einstein_extension_unimodular",
    "einstein_from_nonunimodular",
    "f_operator_check",
    "jacobi_residual",
    "ladder",
    "load",
    "min_norm_point",
    "moment_map",
    "moment_operator",
    "nilpotency_class",
    "nilsoliton_fit",
    "pair_weight",
    "pi_action",
    "restrict_to_unimodular_kernel",
    "soliton_fit",
    "strata_properties",
    "stratum_compatibility_check",
    "stratum_label",
    "structure_battery",
    "tensor_inner",
    "validate",
    "validate_construction",
]
