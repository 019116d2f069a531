"""Backward lumping walk-through.

With equal feeding rates, x2 and x3 of the cascade are interchangeable:
initialized equally they stay equal forever.  Backward reduction keeps one
representative per block and rewrites the other members to it.  The same
reduction issues a warning when the initial values disagree, because then
the reduced model no longer reproduces the original dynamics.
"""

import warnings

from odelump import (Partition, check_bde, coarsest_with_trace, integrate,
                     parse_model, reduce_backward, serialize_model)

MODEL = """
begin model
begin init
  x1 = 1
  x2 = 1/2
  x3 = 1/2
end init
begin ode
  d(x1) = -x1
  d(x2) = x1 - x2
  d(x3) = x1 - x3
end ode
end model
"""

system = parse_model(MODEL).system

# The witness-free syntactic check: substitute every variable by its block
# representative and compare normalized drifts.
part = coarsest_with_trace(system, Partition.one_block(system.n), "bde")[0]
print("coarsest backward partition:", part.format(system.names))
print("check verdict:", check_bde(system, part).describe(system.names))

reduced = reduce_backward(system, part)
print("\nreduced model (x3 rewritten to x2):")
print(serialize_model(reduced))

# Members really coincide with their representative along the flow.
traj = integrate(system, t_end=5.0, dt=1e-3, sample_every=100)
gap = max(abs(a - b) for a, b in zip(traj.column("x2"), traj.column("x3")))
print("max |x2 - x3| along the trajectory:", gap)

# Unequal initial values: the partition still passes the check (it concerns
# the vector field only), but the reduction warns that dynamics will differ.
skewed = parse_model(MODEL.replace("x3 = 1/2", "x3 = 5")).system
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    reduce_backward(skewed, part)
print("\nwith init x3 = 5:", caught[0].message)
