"""Lumping at scale: 100000 variables, 300000 monomials.

Ten thousand copies of a ten-variable motif share one drift structure, so
the coarsest backward partition has exactly ten blocks, one per role.  The
signature-refinement loop finds it in a few seconds: each pass canonicalizes
every drift against the current partition and splits blocks by the result.
"""

import time
from fractions import Fraction

from odelump import OdeSystem, Partition, coarsest_with_trace
from odelump.poly import Monomial, Polynomial

COPIES, WIDTH = 10_000, 10

one = Fraction(1)
names = []
drifts = []
for c in range(COPIES):
    base = c * WIDTH
    for r in range(WIDTH):
        me, nxt, nx2 = base + r, base + (r + 1) % WIDTH, base + (r + 2) % WIDTH
        names.append(f"v{c}_{r}")
        drifts.append(Polynomial([Monomial(Fraction(-(r + 1)), ((me, 1),)),
                                  Monomial(one, ((nxt, 1),)),
                                  Monomial(one, ((me, 1), (nx2, 1)))]))

system = OdeSystem(tuple(names), tuple(drifts), (one,) * (COPIES * WIDTH))
print(f"built {system.n} variables, {system.monomial_count()} monomials")

started = time.perf_counter()
part = coarsest_with_trace(system, Partition.one_block(system.n), "bde")[0]
elapsed = time.perf_counter() - started

sizes = sorted(len(b) for b in part.blocks)
print(f"coarsest backward partition: {part.block_count} blocks "
      f"of sizes {sizes[0]}..{sizes[-1]} in {elapsed:.1f}s")
assert part == Partition([range(r, system.n, WIDTH) for r in range(WIDTH)])
print("matches the known role partition")
