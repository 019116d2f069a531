"""The public surface of ``odelump``: its exact names, each bound once, and
every name the demos import from it.

``demos/05_large_scale.py`` takes minutes and is not run by the test suite,
so its imports are checked here by reading the source.
"""

import ast
import importlib
from pathlib import Path

import pytest

import odelump

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

PUBLIC = [
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
    "resolve_solver_cmd", "smt_emit", "solver_invoke",
    "symbolic_coarsest_with_trace",
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


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 65
    assert len(set(odelump.__all__)) == len(odelump.__all__)
    assert sorted(odelump.__all__) == sorted(PUBLIC)


def test_every_name_resolves_to_its_own_object():
    objects = [getattr(odelump, name) for name in odelump.__all__]
    assert len({id(obj) for obj in objects}) == len(objects)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), str(demo))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "odelump"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
