"""Hyperbolic cube metrics, jet quasi-distances, Whitney-type trace checks,
and LP-based Lipschitz selection on finite data."""

from .cubes import (
    Cube,
    HalfSpacePoint,
    cube_distance,
    cube_family,
    cube_to_halfspace,
    dyadic_radii,
    equivalence_ratio,
    halfspace_to_cube,
    poincare_distance,
    uniform_norm,
    weighted_cube_distance,
)
from .geodesic import (
    Chain,
    chain_length,
    d_lower,
    d_upper,
    gauge_chain_inequality,
    interval_chain_inequality,
    interpolating_candidates,
    verify_chain_bound,
)
from .jets import (
    Jet,
    gauge,
    gauge_inverse,
    jet_distance,
    jet_distance_componentwise,
    jet_distance_via_value_gauge,
    jet_gap,
    scale,
    sobolev_distance,
    value_gauge,
    zygmund_distance,
)
from .lp import LPProblem, LPSolution, lp_solve
from .modulus import (
    Modulus,
    OmegaMembershipReport,
    QuasipowerEstimate,
    check_omega_m,
    quasipower_constant,
)
from .poly import MultiIndex, Poly, mi_order, multi_indices, poly_space_dim
from .selection import (
    ConvexSetSpec,
    CounterexampleRow,
    FinitenessReport,
    SelectionInstance,
    SelectionResult,
    best_selection,
    counterexample_family,
    finiteness_experiment,
    membership_block,
    relaxed_feasible,
    selection_field,
)
from .whitney import (
    CheckReport,
    LoSeminorm,
    PolyField,
    SampleSet,
    SeminormEstimate,
    StarNorm,
    check_conditions,
    finite_difference,
    fit_field,
    jet_fit,
    limit_jet,
    lipschitz_forms,
    lo_norm_full,
    lo_seminorm,
    local_fit,
    seminorm_estimate,
    star_norm,
)

__version__ = "0.1.0"
