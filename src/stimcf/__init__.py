"""stimcf: weak inverse spacetime mean curvature flow at desk scale."""

from .initial_data import (InitialDataSet, build_preset, verify_decay,
                           constraint_densities, save_grid_data,
                           load_grid_data)
from .radial_oracle import (RadialProfile, smooth_flow_ode,
                            level_set_quadrature, horizon_root,
                            evolution_equation_check)
from .domain import build_domain
from .solver import (newton_solve, continuation_solve, imcf_reference_solve,
                     apriori_monitor, ScalarSolution)

__all__ = [
    "InitialDataSet", "build_preset", "verify_decay", "constraint_densities",
    "save_grid_data", "load_grid_data",
    "RadialProfile", "smooth_flow_ode", "level_set_quadrature",
    "horizon_root", "evolution_equation_check",
    "build_domain",
    "newton_solve", "continuation_solve", "imcf_reference_solve",
    "apriori_monitor", "ScalarSolution",
]

__version__ = "0.1.0"
