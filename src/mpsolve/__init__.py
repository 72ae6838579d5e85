"""mpsolve: 1-D time-dependent Schrodinger evolution by projection between
piecewise-constant intermediate eigenbases, with an analytic oscillator
oracle and a first-order amplitude comparator."""

from .core import (
    Grid,
    HamiltonianSpec,
    PotentialSpec,
    ScaleProfile,
    WaveFunction,
    inner_product,
    norm_squared,
)
from .dirac import (
    AmplitudeTrajectory,
    DivergenceReport,
    divergence_diagnostic,
    first_order_amplitude,
    integrate_amplitudes,
    perturbation_elements,
    perturbation_operator,
)
from .eigensolver import EigenBasis, SymTridiagonal, discretize, eigendecompose, residual
from .oscillator import (
    OscillatorParams,
    QuenchCoefficients,
    hermite_eigenfunction,
    pulse_phase_prediction,
    sudden_quench_coefficients,
    truncated_quench_energy,
)
from .projection import (
    EvolutionResult,
    ProjectionStepReport,
    evolve,
    intermediate_energy,
    project,
    reconstruct,
    slice_boundaries,
)

__version__ = "0.1.0"
