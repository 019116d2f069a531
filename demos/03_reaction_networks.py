"""Reaction networks and polynomial ODEs are two views of the same model.

Mass-action semantics turns reactions into polynomial drifts; conversely,
every monomial of a polynomial drift becomes one reaction whose rate may be
negative.  The two encodings are mutually inverse, so lumping can run on
whichever form a model arrives in.
"""

from odelump import (Partition, coarsest_with_trace, ode_to_rn, parse_model,
                     rn_to_ode, serialize_model)

NETWORK = """
begin model
begin init
  prey = 10
  hunter1 = 1
  hunter2 = 1
end init
begin reactions
  prey -> prey + prey, 1
  prey + hunter1 -> hunter1, 1/2
  prey + hunter2 -> hunter2, 1/2
  hunter1 -> 0, 1
  hunter2 -> 0, 1
end reactions
end model
"""

doc = parse_model(NETWORK)
ode = rn_to_ode(doc.system)
print("mass-action drifts:")
print(serialize_model(ode))

# Back to reaction form: one reaction per monomial, negative rates allowed.
rn = ode_to_rn(ode)
print("re-encoded reactions (one per monomial):")
print(serialize_model(rn, form="rn"))
assert rn_to_ode(rn) == ode  # exact round trip

# The two hunters play symmetric roles, which forward lumping discovers.
part = coarsest_with_trace(ode, Partition.one_block(ode.n), "fde")[0]
print("coarsest forward partition:", part.format(ode.names))
