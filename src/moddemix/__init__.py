"""Blind deconvolution demixing of modulated inputs.

Recovers N channel/message pairs from the single observed sum of their
modulated circular convolutions, using spectral initialization and
regularized Wirtinger gradient descent on the factored rank-1 lifting.
"""

from .operators import (
    BlockFactorPair,
    Dimensions,
    MeasurementEnsemble,
    ObservationVector,
    adjoint_component,
    dense_oracle,
    forward_map,
)
from .objective import (
    CoherenceReport,
    PenaltyParams,
    coherences,
    evaluate,
)
from .solver import (
    InitResult,
    SolveTrace,
    SolverConfig,
    initialize,
    leading_singular_triple,
    project_incoherent,
    solve,
)
from .instances import (
    TrialSpec,
    make_ground_truth,
    make_modulation,
    relative_error,
    snapshot_from_json,
    snapshot_to_json,
    synthesize,
)
from .harness import (
    SweepGrid,
    TrialRecord,
    run_convergence_trace,
    run_phase_transition,
    run_probe,
    run_snr_sweep,
    run_transmitter_sweep,
    run_trial,
)

__version__ = "0.1.0"
