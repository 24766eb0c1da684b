"""Exact-arithmetic toolkit for cluster mutations, rational polytopes, and
tropicalized mutation certificates."""

from .glsseed import gls_exchange_matrix, gls_quiver
from .mutation import (
    ExtendedExchangeMatrix,
    MutationTrace,
    Quiver,
    apq_normalize,
    double_arrows,
    exchange_matrix,
    ft_infinite_witness,
    large_entry_search,
    mutation_class_bfs,
    to_quiver,
)
from .polytopes import (
    HalfSpace,
    QGFCertificate,
    RationalPolytope,
    halfspace,
    hull,
    is_supporting,
    lattice_points,
    polar_dual,
    qgf_certificate,
    slice_polytope,
)
from .rootsys import CartanMatrix, cartan_matrix, is_longest, is_reduced, reflect, word_indices
from .tropical import (
    DistinguishCertificate,
    FamilySpec,
    Stage,
    center_fixedness,
    distinguish_certificate,
    qgf_preservation_check,
    supporting_halfspace_lemma,
    trop_mutate_point,
    trop_mutate_polytope,
)

__version__ = "0.1.0"

__all__ = [
    "CartanMatrix",
    "DistinguishCertificate",
    "ExtendedExchangeMatrix",
    "FamilySpec",
    "HalfSpace",
    "MutationTrace",
    "QGFCertificate",
    "Quiver",
    "RationalPolytope",
    "Stage",
    "apq_normalize",
    "cartan_matrix",
    "center_fixedness",
    "distinguish_certificate",
    "double_arrows",
    "exchange_matrix",
    "ft_infinite_witness",
    "gls_exchange_matrix",
    "gls_quiver",
    "halfspace",
    "hull",
    "is_longest",
    "is_reduced",
    "is_supporting",
    "large_entry_search",
    "lattice_points",
    "mutation_class_bfs",
    "polar_dual",
    "qgf_certificate",
    "qgf_preservation_check",
    "reflect",
    "slice_polytope",
    "supporting_halfspace_lemma",
    "to_quiver",
    "trop_mutate_point",
    "trop_mutate_polytope",
    "word_indices",
]
