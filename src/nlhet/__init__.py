"""Heteroclinic connections for strongly nonlocal equations.

Computes layer solutions of  L Q + a(x) W'(Q) = 0  (L a singular kernel
operator comparable to the fractional Laplacian with s in (1/4, 1/2]) by
constrained minimization of a renormalized energy with viscosity and
penalization continuation, plus the diagnostic suite: clean intervals,
stickiness, two-sided obstacle bounds, Hoelder/decay estimates, and the
norm-scaling benchmark families.
"""

import gc

# numpy and the core modules import with the cyclic collector off: nearly
# everything they allocate lives as long as the process.  Turned back on, it
# makes one pass over all of it as the import returns, which frees the
# garbage cycles that numpy's import leaves (the pure-Python datetime classes)
_collecting = gc.isenabled()
gc.disable()
try:
    from .model import (KernelSpec, ModulationSpec, PotentialSpec, ProblemSpec,
                        ReferenceProfile, kernel_eval, potential_eval_grad,
                        reference_profile_eval, verify_model)
    from .discretize import Grid, Profile, seminorm_K
    from .obstacles import (ObstacleConfig, ObstaclePair, barrier_pair,
                            build_envelopes, solve_barrier)
    from .solver import (ContinuationSchedule, EnergyBreakdown, SolveResult,
                         SolverConfig, continuation_run)
finally:
    if _collecting:
        gc.enable()

__version__ = "0.1.0"

__all__ = [
    "KernelSpec", "ModulationSpec", "PotentialSpec", "ProblemSpec",
    "ReferenceProfile", "kernel_eval", "potential_eval_grad",
    "reference_profile_eval", "verify_model",
    "Grid", "Profile", "seminorm_K",
    "ObstacleConfig", "ObstaclePair", "barrier_pair", "build_envelopes",
    "solve_barrier",
    "ContinuationSchedule", "EnergyBreakdown", "SolveResult", "SolverConfig",
    "continuation_run",
    "__version__",
]
