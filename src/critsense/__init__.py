"""Interferometric quantum sensing with critical spin chains.

Exact state/operator algebra, model builders, Fisher-information kernels,
symmetry-based readouts, decoherence channels, a free-fermion backend for
large chains, outcome-decoded deformed states, subsystem-parity protocols,
and a deterministic experiment CLI.
"""

__version__ = "0.1.0"

from .policy import POLICY, CapacityError, NumericPolicy
from .qcore import (
    MixedState,
    PauliOperator,
    PureState,
    dephase_normalize,
    evolve_phase,
    expectation,
    partial_trace,
    to_matrix,
    variance,
)
from .models import (
    GroundSolution,
    ModelSpec,
    build_hamiltonian,
    ghz_state,
    ground_state,
    locate_rydberg_critical_detuning,
    luttinger_K,
    oat_squeezed_state,
    optimal_oat_twist,
    rydberg_blockade_basis,
    solve_model,
    solve_rydberg_blockaded,
    spin_coherent_state,
)
from .metrology import (
    PrecisionCurve,
    QfiReport,
    classical_fisher,
    d2,
    error_propagation,
    fn_sequence,
    jeffreys_n,
    optimal_observable,
    qfi_mixed,
    qfi_pure,
    sld,
)
from .symmetry import (
    HadamardTestResult,
    SymmetryOperator,
    anticommutes,
    build_symmetry,
    hadamard_test,
    rydberg_order_parameter,
    symmetry_eigenvalue,
)
from .channels import (
    ChannelSpec,
    NoiseKernel,
    apply_channel,
    noisy_imprinted_state,
    bitflip_qfi_formula,
    conjugate_collective_action,
    dephased_delta_theta_critical,
    ghz_dephased_delta_theta,
    global_dephasing_sensitivity,
    zz_channel_invariance_check,
)
from .fermion import (
    FermionSolution,
    PowerLawFit,
    fit_power_law,
    qfi_scaling_tfim,
    solve_tfim_fermion,
    zz_correlator,
    zz_correlators,
)
from .deformed import (
    DeformationSpec,
    OutcomeEnsemble,
    averaged_qfi,
    decoded_correlator,
    deform,
    enumerate_outcomes,
    outcome_qfi,
    sample_outcomes,
    uniform_outcome_lro_check,
)
from .subsys import (
    SubsystemProtocol,
    WindowReport,
    parity_theta_curve,
    subsystem_parity,
    window_report,
    xxz_string_parity,
    xxz_window_scaling,
)
