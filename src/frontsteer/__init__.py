"""frontsteer: optimal control of front propagation by obstacle construction.

Solves the convex dual problem over the continuity equation, recovers the
obstacle and value function, and numerically certifies the duality and
optimality conditions.

The package namespace holds what a caller of the library uses: the grid,
its fields and their file I/O, the cost and speed models, and the solver
with its value formulas; the rest is reached through its module.
"""

from .errors import ConfigError, NumericError, ParameterError
from .grid import (DensityField, ScalarField, TorusGrid, VecField, norm_lp,
                   read_field, write_field)
from .model import (CostModel, FiniteControlsSpeed, IsotropicSpeed, cost,
                    cost_conj, cost_deriv_conj, prox_cost_conj)
from .pdopt import (OptimalBundle, ProblemInstance, SolverConfig, evaluate_A,
                    evaluate_B, optimize, recover_f, recover_velocity)

__version__ = "0.1.0"
