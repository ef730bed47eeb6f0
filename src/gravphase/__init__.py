"""Gravitational entangling phases for delocalised quantum sources, with
truncated-mode operator verification of the commutator-generated phase
corrections."""

from .grids import GridSpec
from .sources import (
    EnergyDensity,
    LocalizedSourceSpec,
    PhysicalConstants,
    QuantumSourceState,
    gaussian_density,
    grid_density,
    point_density,
    sample_on_grid,
    source_overlap,
)
from .poisson import (
    PairIntegrals,
    ScalarFieldX,
    mutual_coulomb,
    pair_integrals,
    solve_hT_direct,
    solve_hT_spectral,
)
from .phases import (
    PhaseMatrix,
    PhaseReport,
    PhaseRequest,
    compare_models,
    negativity,
    newton_phase,
    theta_AB,
)
from .overlaps import (
    ModeGaussianState,
    build_field_state,
    exact_joint_overlap,
    semiclassical_overlap,
)
from .opalg import (
    ModeSpec,
    ProbeStressTensor,
    PropagatorComparison,
    ThetaPrediction,
    TruncatedModeSystem,
    build_HG,
    build_HI,
    c_number_probe_stress,
    commutator,
    compare_propagators,
    exact_propagator,
    extract_relative_phase,
    make_single_mode_system,
    nested_commutators,
    predict_theta,
    zassenhaus_product,
)

__version__ = "0.1.0"
