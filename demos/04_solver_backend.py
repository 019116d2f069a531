"""Equivalence checking through an external SMT solver.

Drifts with minima or divisions fall outside the polynomial machinery; the
condition "same-block variables with equal values have equal derivatives"
is then encoded as a QF_NRA formula whose negation goes to a solver process.
The emitted script is shown below; if a solver (z3 by default, or whatever
$ODELUMP_SOLVER names) is installed, the witness-guided loop runs as well.
"""

import shlex
import shutil

from odelump import (Partition, build_phi_bde, parse_model, smt_emit,
                     phi_variable_names, resolve_solver_cmd,
                     symbolic_coarsest_with_trace)

MODEL = """
begin model
begin init
  x1 = 1
  x2 = 1
  x3 = 1
end init
begin ode
  d(x1) = min(x1, x2)
  d(x2) = min(x2, x1)
  d(x3) = 2*x3
end ode
end model
"""

system = parse_model(MODEL).system
part = Partition([[0, 1], [2]])

script = smt_emit(build_phi_bde(system, part),
                  phi_variable_names(system, "bde"))
print("SMT-LIB script for the candidate partition "
      f"{part.format(system.names)}:\n")
print(script)

cmd = resolve_solver_cmd()
if shutil.which(shlex.split(cmd)[0]) is None:
    print(f"no solver on the path ({cmd!r} not found); "
          "install one to run the refinement loop")
else:
    found = symbolic_coarsest_with_trace(
        system, Partition.one_block(system.n), "bde")[0]
    print("coarsest backward partition from the solver loop:",
          found.format(system.names))
