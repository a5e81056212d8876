#!/usr/bin/env python3
"""Simple modules from multi-partitions, with explicit matrices.

Every simple module is labelled by a tuple of partitions, one per color,
whose sizes form the type of a groupoid component.  The module places an
outer product of Specht modules on each object of that type; matrices come
out exact and block-per-object.  The script prints the dimension bookkeeping,
a sample action matrix, characters, and the removable-node branching rule.
"""

from math import factorial

from groupoidreps.groupoid import hom
from groupoidreps.simples import (
    all_simples,
    build_simple,
    conjugacy_classes,
    restriction_multiplicities,
    verify_complete,
)
ELL, D = 2, 3

mods = all_simples(ELL, D)
print(f"simple modules of the ({ELL},{D}) groupoid algebra:")
for mod in mods:
    print(
        f"  p = {mod.label_json()}  shape {mod.lam}  block dim {mod.block_dim}"
        f"  total dim {mod.total_dim}"
    )
print(
    f"sum of squares: {sum(m.total_dim**2 for m in mods)}"
    f" = group order {ELL**D * factorial(D)}"
)

mod = build_simple(ELL, 1, D, ((2,), (1,)), 1)
f, g = mod.objects[0], mod.objects[1]
m = hom(f, g, ELL)[0]
print(f"\naction of ({f} -> {g}, perm {m.perm}) on L_{mod.label_json()}:")
block = mod.action_block(m)  # the {(row, col): value} entries that are nonzero
for i in range(mod.block_dim):
    print("  ", [str(block[i, j].coeffs[0]) if (i, j) in block else "0" for j in range(mod.block_dim)])

print("\ncharacter values on class representatives:")
for rep, size in conjugacy_classes(ELL, D):
    print(f"  class of {rep} (size {size}): {mod.char_wreath(rep)!r}")

print("\nrestriction to one fewer dot (removable-node rule):")
for sub, mult in restriction_multiplicities(mod).items():
    print(f"  {[list(p) for p in sub]} with multiplicity {mult}")

rep = verify_complete(ELL, D)
print("\ncompleteness checks:")
for chk in rep["checks"]:
    print(f"  [{chk['status']}] {chk['name']}")
