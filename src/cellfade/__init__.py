"""Single-particle battery aging model with health identification.

Physics: radial diffusion in one representative particle per electrode,
Butler-Volmer kinetics, SEI growth, lithium plating, stress-driven
active-material loss. On top of that: pseudo-OCV health estimation,
resistance/expansion measurement models, and the inversion machinery
that maps field-observable aggregates back to internal degradation
states (unique, one-parameter family, or ambiguous).
"""

__version__ = "0.1.0"

from .cell import Cell
from .electrochem import pristine_inventory, solve_window
from .errors import (AmbiguousRootsError, CellDeadError, CellfadeError,
                     ConfigError, EstimationFailedError, InfeasibleError,
                     KineticsSingularError, ProtocolStallError,
                     SaturationError)
from .identify import (ambiguity_experiment, invert_with_expansion,
                       invert_without_expansion, sample_family)
from .measurement import MeasurementVector, synthesize_pseudo_ocv
from .params import default_cell
from .protocol import Campaign, reference_capacity, run_campaign, run_rpt

# The names used in the README, the CLI and the demos; every other public
# name is imported from its submodule (cellfade.degradation, ...).
__all__ = [
    "__version__",
    "AmbiguousRootsError", "CellDeadError", "CellfadeError", "ConfigError",
    "EstimationFailedError", "InfeasibleError", "KineticsSingularError",
    "ProtocolStallError", "SaturationError",
    "default_cell", "pristine_inventory", "solve_window", "Cell",
    "MeasurementVector", "synthesize_pseudo_ocv",
    "Campaign", "reference_capacity", "run_campaign", "run_rpt",
    "ambiguity_experiment", "invert_with_expansion",
    "invert_without_expansion", "sample_family",
]
