"""Spectral solver and verification lab for the fourth-order Schrodinger
equation on the unit interval with hinged (Navier) or clamped (Dirichlet)
boundary data."""

from .spectral import (BoundaryTrace, FourierState, SobolevIndex,
                       mixed_state, odd_even_extend, reconstruct,
                       reconstruct_derivative, sine_coefficients, sine_state,
                       sobolev_norm, trace_sobolev_norm)
from .linear_flow import (ClampedBasis, ForcingHistory, build_clamped_basis,
                          duhamel, duhamel_history, navier_eigenvalues,
                          propagate_dirichlet, propagate_navier,
                          propagate_periodic)
from .boundary_ops import (BetaTable, build_beta_table, boundary_convolution,
                           dirichlet_lift, dirichlet_linear_history,
                           dirichlet_traces, mirror,
                           navier_boundary_history, navier_lift,
                           w0d, w0n, w1d, w2n)
from .nonlinear import (ProblemSpec, SolutionRecord, homogenize_navier,
                        nonlinearity, picard_dirichlet, picard_navier)
from .lab import (CounterexampleRun, RegularitySweep, count_lambda4,
                  identity_checks, kato_sweep, optimality_run,
                  tail_bound_spotcheck, trace_regularity_r)

__version__ = "0.1.0"
