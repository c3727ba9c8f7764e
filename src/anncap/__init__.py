"""anncap: variational p-capacities of thin annuli, annular-decay exponents,
and numeric verification of the associated two-sided estimates.

Importing the package loads numpy alone: each scipy submodule is imported
inside the function that calls it."""

from .bounds import BlowupReport, BoundId, BoundSpec, SweepReport, blowup_probe, evaluate_bound, verify_envelope
from .capacity import (
    CapacityMethod,
    CapacityResult,
    cap_auto,
    cap_bowtie_pinch,
    cap_radial_p1,
    cap_radial_weighted,
    cap_rn_unweighted,
    cap_snake,
    cap_values,
)
from .decay import (
    AdFitReport,
    OneAdReport,
    ad_ratio,
    ad_ratio_trend,
    check_one_ad,
    doubling_ratios,
    estimate_ad_exponent,
    fit_annulus_decay,
)
from .errors import (
    AnncapError,
    ApplicabilityError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    InputError,
    QuadratureError,
)
from .gallery import (
    GalleryEntry,
    default_gallery,
    gallery_manifest,
    make_bowtie,
    make_buckley,
    make_halfline,
    make_rn_unweighted,
    make_snake,
    make_summed_buckley,
    verify_expectations,
)
from .measure import mu_annulus, mu_annulus_detailed, mu_ball, mu_ball_detailed, mu_family
from .network import (
    BoundaryCondition,
    DiscreteNetwork,
    SolveReport,
    build_bowtie_grid,
    build_radial_network,
    build_snake_network,
    condenser_bc,
    solve_p_energy,
)
from .spaces import AnnulusSpec, BowTie, HalfLine, RadialRn, Snake, SpaceSpec, TraitSet, surface_area
from .weights import (
    BuckleyEta,
    Constant,
    HalfLineCatalog,
    HalfLineKind,
    PowerAlpha,
    SummedBuckley,
    Tabulated,
)

__version__ = "0.1.0"
