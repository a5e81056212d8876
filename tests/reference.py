"""Reference routines that the tests compare the library against.

kernel_basis is the null space read off the one elimination engine; no
library path needs it, since every commutant is one call to
cyclo.intertwiners.  conjugation_orbits and conjugacy_classes_of partition
a group into conjugation orbits by walking them, the route that the
closed-form classes of simples and gkd replace.  cyc_inner_product is the
inner product with one Cyc product and one scale per class.  scan_phi_trace
is the trace of Phi(x) by a scan of every object, the route that the
End(g)-class groups of simples.fixed_objects replace.
"""

from fractions import Fraction
from operator import mul

from groupoidreps.cyclo import Cyc, SpanBasis
from groupoidreps.perms import reach
from groupoidreps.wreath import WreathElem, wreath_inv, wreath_mul


def kernel_basis(ell: int, rows: list[list[Cyc]], ncols: int) -> list[list[Cyc]]:
    """Exact basis of the right null space {x : A x = 0}, one vector per free column."""
    sb = SpanBasis(ell, ncols)
    for row in rows:
        sb.add(row)
    return sb.kernel()


def conjugation_orbits(members, gens) -> list[tuple[WreathElem, set]]:
    """(first member, orbit) for each conjugation orbit of the group that gens generate.

    Each orbit is one `reach` walk under conjugation by the generators;
    orbits come in the order of their first members in members.
    """
    gen_pairs = [(g, wreath_inv(g)) for g in gens]

    def conjugates(y):
        return (wreath_mul(wreath_mul(g, y), ginv) for g, ginv in gen_pairs)

    unseen = set(members)
    out = []
    for x in members:
        if x in unseen:
            orbit = reach([x], conjugates)
            unseen -= orbit
            out.append((x, orbit))
    return out


def conjugacy_classes_of(members, gens) -> tuple[tuple[WreathElem, int], ...]:
    """(representative, class size) pairs by walking the conjugation orbits."""
    return tuple((x, len(orbit)) for x, orbit in conjugation_orbits(members, gens))


def cyc_inner_product(classes, alpha, beta_bar) -> Cyc:
    """(1/|G|) sum over classes of size * alpha * beta_bar, one Cyc product and scale per class."""
    acc = Cyc.zero(classes[0][0].ell)
    for (_rep, size), a, b in zip(classes, alpha, beta_bar):
        acc = acc + (a * b).scale(size)
    return acc.scale(Fraction(1, sum(size for _rep, size in classes)))


def scan_phi_trace(x: WreathElem, objs, block_trace) -> Cyc:
    """The trace of Phi(x) by testing g o perm = g at every object g of objs, one block trace each."""
    ell, perm, colors = x.ell, x.perm, x.colors
    sums = [0] * ell
    for g in objs:
        if all(g[p - 1] == c for p, c in zip(perm, g)):
            tr = block_trace(g, perm)
            if tr:
                sums[sum(map(mul, colors, g)) % ell] += tr
    return Cyc.from_exponent_sums(ell, sums)
