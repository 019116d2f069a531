"""Exact reduction of ODE systems and reaction networks.

The package decides two equivalences over partitions of the variables of an
ODE system: forward (block sums obey a self-contained smaller system) and
backward (same-block variables share solutions when initialized equally).
Polynomial drifts are handled exactly with rational arithmetic; drifts with
division, minima/maxima or absolute values go through an external SMT solver.
"""

from .driftexpr import (Abs, Bin, Const, DriftExpr, Var, drift_eval,
                        expr_variables, format_expr, poly_to_expr, to_polynomial)
from .encode import Reaction, ReactionNetwork, multiset, ode_to_rn, rn_to_ode
from .errors import (DivisionByZero, DuplicateVariable, GridMismatch,
                     GroundSetMismatch, InitMismatchWarning, ModelSyntaxError,
                     NonFiniteState, NonPolynomialDrift, NoUniqueCoarsest,
                     NotABde, NotAnFde, OdeLumpError, PartitionCoverageError,
                     PartitionMismatch, ProtocolError, SolverNotFound,
                     SolverTimeout, SolverUnknown, TooLarge, UndeclaredVariable)
from .lump import (CheckResult, brute_force_coarsest, check_bde, check_fde,
                   coarsest_with_trace, prepartition_from_inits,
                   reduce_backward, reduce_forward)
from .parsing import ModelDocument, parse_expression, parse_model, serialize_model
from .partition import Partition
from .poly import Monomial, Polynomial, monomial
from .sim import Trajectory, compare_reduction, integrate, read_csv, write_csv
from .smt import (SolverVerdict, build_phi_bde, build_phi_fde,
                  phi_variable_names, resolve_solver_cmd, smt_emit,
                  solver_invoke, symbolic_coarsest_with_trace)
from .system import OdeSystem

__version__ = "0.1.0"

__all__ = [
    # expressions and polynomials
    "Abs", "Bin", "Const", "DriftExpr", "Var", "drift_eval", "expr_variables",
    "format_expr", "poly_to_expr", "to_polynomial",
    "Monomial", "Polynomial", "monomial",
    # systems and networks
    "OdeSystem", "Reaction", "ReactionNetwork", "multiset", "ode_to_rn",
    "rn_to_ode",
    # partitions and lumping
    "Partition", "CheckResult", "check_bde", "check_fde",
    "coarsest_with_trace", "brute_force_coarsest", "prepartition_from_inits",
    "reduce_backward", "reduce_forward",
    # model text
    "ModelDocument", "parse_expression", "parse_model", "serialize_model",
    # solver backend
    "SolverVerdict", "build_phi_bde", "build_phi_fde", "phi_variable_names",
    "resolve_solver_cmd", "smt_emit", "solver_invoke", "symbolic_coarsest_with_trace",
    # simulation
    "Trajectory", "compare_reduction", "integrate", "read_csv", "write_csv",
    # errors
    "OdeLumpError", "DivisionByZero", "DuplicateVariable", "GridMismatch",
    "GroundSetMismatch", "InitMismatchWarning", "ModelSyntaxError",
    "NonFiniteState", "NonPolynomialDrift", "NoUniqueCoarsest", "NotABde",
    "NotAnFde", "PartitionCoverageError", "PartitionMismatch", "ProtocolError",
    "SolverNotFound", "SolverTimeout", "SolverUnknown", "TooLarge",
    "UndeclaredVariable",
]
