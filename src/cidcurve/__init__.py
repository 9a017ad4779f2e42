"""Exact linkage toolkit for projective curves and curve germs.

Everything is computed over the rationals or a prime field with exact
arithmetic: Groebner bases, ideal operations, Hilbert-series
invariants, linking complete intersections with certified witnesses,
the complete-intersection discrepancy by independent routes, genus and
multiplicity identities, and local germ invariants from branch
parametrizations.
"""

from .discrepancy import (
    GenusReport,
    cid_aci,
    cid_direct,
    cid_lci_general,
    cid_routes,
    cid_smooth_jacobian,
    degree_lower_bound,
    genus_report,
    is_smooth_curve,
    jacobian_cover_check,
    jacobian_ideal,
    omega_jacobian,
    omega_matches_jacobian,
    residual,
    transversality_count,
)
from .fields import Field
from .files import (
    GermFile,
    RingFile,
    load_text,
    parse_germ_text,
    parse_ring_text,
    sniff_format,
)
from .germs import (
    BranchParam,
    GermInvariants,
    branch_ideal,
    cid_local_aci,
    cid_local_direct,
    cid_local_multiplicities,
    delta_invariant,
    e_jacobian_single_minor,
    e_ramification,
    general_ci_germ,
    germ_invariants,
    germ_multiplicity,
    hs_multiplicity_pullback,
    is_tame,
    milnor_number,
)
from .groebner import GroebnerBasis, groebner_basis, is_member, normal_form
from .hilbert import (
    arithmetic_genus,
    graded_dimension,
    hilbert_polynomial,
    hilbert_series,
    krull_dimension,
    proj_degree,
    proj_dimension,
)
from .ideals import (
    INFINITE,
    Ideal,
    distinct_point_count,
    eliminate,
    ideal,
    ideal_equal,
    ideal_product,
    ideal_sum,
    intersect,
    is_saturated,
    local_vdim_origin,
    quotient,
    radical_zero_dim,
    saturate,
    saturate_irrelevant,
    vdim,
)
from .linkage import (
    CIWitness,
    CurveInput,
    choose_chart,
    construct_ci,
    construct_ci_transversal,
    witness_to_dict,
)
from .orders import GREVLEX, LEX, order_from_name
from .polynomials import (
    Chart,
    Polynomial,
    PolyRing,
    dehomogenize,
    homogenize,
    parse_polynomial,
    partial_derivative,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
