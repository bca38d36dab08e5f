from fractions import Fraction

import abinertia as ab

# ### Describing a group
#
# A group is a finite list of named blocks.  Three block kinds cover the
# whole model: `Cyclic(p, k, mult)` is a direct sum of `mult` copies of
# the cyclic group of order p^k (`mult` may be the symbol `ab.OMEGA` for
# countably many copies), `Prufer(p, copies)` contributes divisible
# p-power torsion, and `TorsionFree(primes, rank)` is a torsion-free
# group divisible exactly at the given primes.

group = ab.GroupDesc([
    ("B", ab.Cyclic(2, 2, ab.OMEGA)),
    ("D", ab.Prufer(2, 1)),
    ("V", ab.TorsionFree({3}, 1)),
])
print("blocks:", [name for name, _ in group.blocks])
print("periodic:", group.is_periodic)
print("torsion-free rank:", group.torsion_free_rank)
print("active primes:", sorted(group.active_primes()))

# ### Structural invariants
#
# `invariants` summarizes the group one prime at a time: the exponent
# bound of the reduced part, the divisible rank, and whether the prime
# is critical (an infinite bounded part next to nonzero divisible
# torsion, which is what makes room for the bridging endomorphisms
# later demos use).

inv = ab.invariants(group)
for prof in inv.profiles:
    print(f"p = {prof.prime}: bound {prof.bound}, essential {prof.essential_bound},"
          f" divisible rank {prof.prufer_rank}, critical {prof.critical}")
print("critical primes:", sorted(inv.critical_primes))
print("mini-multiplication type:", ab.nm_type(group))

# ### Elements
#
# Elements are finitely supported coordinate maps.  Coordinates on a
# cyclic block live modulo p^k, coordinates on a divisible block are
# rationals modulo 1 with p-power denominator.

x = ab.Element.unit(group, "B", idx=0)
y = ab.Element.unit(group, "D", idx=0, value=Fraction(1, 4))
z = x + y + x
print("x + y + x:", z.coeffs)
print("order of x:", x.order())
print("order of x + y + x:", z.order())
print("doubling kills the cyclic part:", (z + z).coeffs)

# ### Finite shadows
#
# `truncate` maps the group onto a finite quotient-like shadow at a
# chosen level: omega multiplicities are capped, divisible blocks become
# cyclic towers, torsion-free blocks vanish.
# The shadow is what the brute-force oracle enumerates.

shadow = ab.truncate(group, 3)
print("shadow blocks:", [(name, type(b).__name__) for name, b in shadow.group.blocks])
print("shadow order:", shadow.group.order())
