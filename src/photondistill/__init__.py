"""Heralded single-photon distillation via a cavity photonic parity measurement."""

__version__ = "0.1.0"

from .cavity import BranchAmplitudes, CavityParams, branch_amplitudes, cooperativity, f1_max, fiber_params, xi
from .distillation import (
    DistillationConfig,
    HeraldedOutput,
    distill_coherent,
    distill_general,
    distilled_state,
    distilled_state_general,
    herald_output,
    herald_probability,
    multi_photon_suppression,
    single_photon_fidelity,
)
from .errors import EmptyBranchError, IllConditionedError, InconsistentBudgetError, ModelError
from .fockspace import (
    DEFAULT_DIM,
    DensityMatrix,
    FockVector,
    PhotonStatistics,
    coherent_state,
    fidelity,
    fock_state,
    photon_statistics,
    pure_loss_channel,
    quadrature_pdf,
    thermal_state,
    wigner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
