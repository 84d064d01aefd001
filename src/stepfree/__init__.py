"""Parameter-free step-size tuning for projected SGD."""

from .core import (NumericalFailure, ProjectionDomain, SgdTrace,
                   StochasticOracle, derive_stream, sgd_run, stream_rng)
from .problems import ProblemSpec, default_x0, make_problem
from .restarts import restart_tune
from .tuner import (BisectionOutcome, DampingParams, Deterministic,
                    NonAdaptive, StepSizeExp, Stochastic, TunerResult,
                    ZeroFirstGradient, tune)
from .validation import CheckLine, check_theorem_bounds

__version__ = "0.1.0"

__all__ = [
    "NumericalFailure", "ProjectionDomain", "SgdTrace", "StochasticOracle",
    "derive_stream", "sgd_run", "stream_rng",
    "ProblemSpec", "default_x0", "make_problem",
    "restart_tune",
    "BisectionOutcome", "DampingParams", "Deterministic", "NonAdaptive",
    "StepSizeExp", "Stochastic", "TunerResult", "ZeroFirstGradient", "tune",
    "CheckLine", "check_theorem_bounds",
    "__version__",
]
