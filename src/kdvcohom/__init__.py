"""Exact bihamiltonian cohomology of the dispersionless KdV pencil.

The package computes, over exact rational arithmetic, the cohomology of
local polyvector fields for the compatible Poisson pair with densities
t0 t1 / 2 and u t0 t1 / 2: the operator identities, the jet-order
filtration with its spectral pages and contracting homotopy, the pencil
cohomology in space, functional and quotient presentations, the joint
kernel of the two brackets, their comparison away from four low
bidegrees, and the long exact sequence tying the presentations together.
Infinite answers are reported through finite monomial windows.
"""

from .algebra import (
    Bidegree,
    DiffPoly,
    Monomial,
    ONE,
    ZERO,
    bidegree,
    dtot,
    format_poly,
    lam_var,
    mono,
    partial,
    poly,
    subst_lam,
    theta,
    u_jet,
)
from .varcalc import (
    FunctionalClass,
    OperatorSpec,
    build_dp,
    delta_theta,
    delta_u,
    dtot_preimage,
    integral_class,
    schouten,
)
from .linwin import (
    DEFAULT_LADDER,
    SliceBasis,
    Window,
    enumerate_piece_basis,
    operator_matrix,
)
from .kdvpencil import (
    D1,
    D2,
    HomotopySingularityError,
    P1_DENSITY,
    P2_DENSITY,
    d1_explicit,
    d_lambda,
    e1_basis,
    filtration_level,
    h_op,
    pencil_filtered_slice,
    subcomplex_bidegrees,
)
from .specseq import (
    FilteredSlice,
    collapse_at,
    converge_check,
    homology_at,
    page,
    page_dr_matrix,
)
from .cohomeng import (
    EXCEPTIONAL_BIDEGREES,
    ExceptionalBidegreeError,
    KINDS,
    class_coords,
    compare_bh_vs_lambda,
    dims_table,
    les_rank_audit,
    piece_homology,
    stabilized,
    windowed_dim,
)
from .acceptance import (
    VERIFY_SUITES,
    format_results,
    run_acceptance,
    run_verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Bidegree", "DiffPoly", "Monomial", "ONE", "ZERO", "bidegree", "dtot",
    "format_poly", "lam_var", "mono", "partial", "poly", "subst_lam",
    "theta", "u_jet",
    "FunctionalClass", "OperatorSpec", "build_dp", "delta_theta", "delta_u",
    "dtot_preimage", "integral_class", "schouten",
    "DEFAULT_LADDER", "SliceBasis", "Window", "enumerate_piece_basis",
    "operator_matrix",
    "D1", "D2", "HomotopySingularityError", "P1_DENSITY", "P2_DENSITY",
    "d1_explicit", "d_lambda", "e1_basis", "filtration_level",
    "h_op", "pencil_filtered_slice", "subcomplex_bidegrees",
    "FilteredSlice", "collapse_at", "converge_check", "homology_at",
    "page", "page_dr_matrix",
    "EXCEPTIONAL_BIDEGREES", "ExceptionalBidegreeError", "KINDS",
    "class_coords", "compare_bh_vs_lambda", "dims_table", "les_rank_audit",
    "piece_homology", "stabilized", "windowed_dim",
    "VERIFY_SUITES", "format_results", "run_acceptance", "run_verify_suite",
    "__version__",
]
