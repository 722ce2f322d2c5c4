"""Pseudo-density matrices over spacetime measurement schedules.

Builds Hermitian unit-trace (not necessarily positive) matrices from
expectation values of products of Pauli measurement outcomes across events
in space and time, computes the trace-norm causality monotone, and sweeps
parametric noise models to locate causal/spacelike transitions.
"""

from .causality import (
    CausalityReport,
    classify,
    f_tr,
    spectrum_verdict,
)
from .channels import (
    DensityState,
    KrausChannel,
    NoiseModel,
    channel_at_time,
    choi_stack,
    compose,
    density_states,
    kraus_array,
    make_channel,
    noise_kraus,
    state_from_bloch,
    unitary_channel,
)
from .errors import InvariantViolation, UsageError
from .linalg import (
    PAULIS,
    hermitian_eig,
    kron,
)
from .schedule import (
    Event,
    PseudoDensityMatrix,
    Schedule,
    ancilla_expectation,
    ancilla_expectations,
    build_pdm,
    expectation,
    expectation_oracle,
    expectations,
    oracle_expectations,
    reduce_pdm,
    two_event_pdm_stack,
    two_event_schedule,
)
from .serialize import sweep_config_from_dict
from .sweep import (
    Sweep,
    SweepConfig,
    emit_svg,
    find_transition,
    rows_to_csv,
    run_sweep,
)
from .verify import (
    SuiteResult,
    haar_unitary,
    suite_local_monotonicity,
    suite_unitary_invariance,
)

__version__ = "0.1.0"
