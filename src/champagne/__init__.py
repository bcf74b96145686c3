"""Champagne subdomains of the unit disk.

Construction of disk-minus-bubbles domains over pseudohyperbolically
distributed point sequences, walk-on-spheres estimation of harmonic
measure with deterministic counter-based streams, exact one-hole and
sandwich bounds, Blaschke-product barriers, the radius-decay criterion
in integral and sum form, and density diagnostics.
"""

__version__ = "0.1.0"

from .barriers import (
    BarrierCertificate,
    BarrierSpec,
    BlaschkeProduct,
    annular_partition,
    barrier_lower_bound,
    barrier_weights,
    extremal_c,
    extremal_d,
    log_blaschke,
)
from .domains import (
    ChampagneDomain,
    CriterionReport,
    RadiusProfile,
    build_champagne,
    build_finitely_connected,
    const_profile,
    criterion_integral,
    criterion_sum,
    domain_from_pseudo,
    expinv_profile,
    parse_profile,
    power_profile,
    table_profile,
    transport_domain,
)
from .errors import (
    ChampagneError,
    NumericalRefusalError,
    OverlapError,
    ValidationError,
    WalkBudgetError,
)
from .harmonic_density import (
    HarmonicDensityCurve,
    McParams,
    ProbeSpec,
    Theorem2Report,
    harmonic_density_curve,
    theorem2_report,
)
from .hyperbolic import (
    EuclideanDisk,
    PseudoDisk,
    euclidean_to_pseudo,
    mobius_apply,
    pseudo_distance,
    pseudo_to_euclidean,
)
from .sequences import (
    DensityEstimate,
    PointSequence,
    SequenceDiagnostics,
    blaschke_sum,
    covering_radius,
    diagnose,
    generate_ring_lattice,
    load_sequence,
    probe_lattice,
    save_sequence,
    separation,
    uniform_density,
)
from .streams import derive_seed
from .walker import (
    LayeredCrossingReport,
    MeasureEstimate,
    SandwichBounds,
    distance_to_boundary,
    estimate_measure,
    layered_crossing,
    one_hole_exact,
    sandwich_bounds,
    wilson_interval,
)
