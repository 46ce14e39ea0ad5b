"""Quench dynamics of dipolar-coupled spin-1/2 networks.

Simulates double-quantum evolution perturbed by the secular dipolar
Hamiltonian, extracts multiple-quantum coherence spectra and correlated
cluster sizes, and runs the finite-time scaling analysis (collapse,
scaling factors, critical fit) on the resulting trajectories.
"""

from .config import RunConfig
from .errors import (CapacityError, CollapseError, ConfigError,
                     CoordinateFileError, EstimatorWarning, FitError, GeometryError,
                     InsufficientDataError, NumericalError, PackingError,
                     SaturationError, SpinQuenchError, UndefinedSpectrumError)
from .evolution import Propagator, QuenchProtocol, evolve_density_exact, expm_multiply_krylov
from .mqc import (ClusterTrajectory, EstimatorConfig, MqcSpectrum, cluster_size, mqc_exact,
                  trajectory)
from .network import (CouplingNetwork, SpinGeometry, cubic_lattice_geometry,
                      dipolar_couplings, generate_geometry, load_geometry_file,
                      random_box_geometry)
from .operators import (DensityMatrix, SpinBasis, build_basis, coherence_order_weights,
                        dense_hamiltonian, gaussian_state)
from .pipeline import cmd_plot, cmd_scale, cmd_simulate, cmd_synth
from .scaling import (BetaScan, CollapseResult, GrowthFit, RescaledCurve, ScalingResult,
                      XiFit, beta_scan, collapse, estimate_k_loc, fit_growth_exponent,
                      fit_xi_branch_gauged, full_scaling_analysis, normalize_xi, rescale,
                      synth_trajectories)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
