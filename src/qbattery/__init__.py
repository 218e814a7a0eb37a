"""Single-qubit quantum battery: unitary vs. measurement-assisted extraction.

Conventions used throughout: hbar = 1, |0> is the excited sigma_z eigenstate.
The library works in absolute units: energies and times are those of the
HamiltonianSpec given. Only wp_closed_form and its t^4 coefficient wp_small_t
return w_p per h; the command line reports energies in h and times in 1/h.
"""

from .battery import (
    BlochVector,
    HamiltonianSpec,
    battery_state,
    bloch_state,
    energy,
    ergotropy,
    hamiltonian_battery,
    hamiltonian_joint,
    passive_state,
)
from .errors import ConfigError, DimensionError, DomainError, HermiticityError
from .optimizer import OptimizationReport, SearchSpace, optimize
from .protocol import (
    EntangledInitParams,
    MeasurementBasis,
    ProtocolResult,
    best_outcome,
    entangled_initial,
    run_protocol,
    separable_initial,
)
from .analytic import (
    MpsScanReport,
    entanglement_entropy,
    mps_scan,
    wp_closed_form,
    wp_excited_oracle,
    wp_small_t,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "EntangledInitParams",
    "HamiltonianSpec",
    "HermiticityError",
    "MeasurementBasis",
    "MpsScanReport",
    "OptimizationReport",
    "ProtocolResult",
    "SearchSpace",
    "battery_state",
    "best_outcome",
    "bloch_state",
    "energy",
    "entangled_initial",
    "entanglement_entropy",
    "ergotropy",
    "hamiltonian_battery",
    "hamiltonian_joint",
    "mps_scan",
    "optimize",
    "passive_state",
    "run_protocol",
    "separable_initial",
    "wp_closed_form",
    "wp_excited_oracle",
    "wp_small_t",
]
