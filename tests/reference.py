"""Reference routines that the tests compare the library against.

kernel_basis is the null space read off the one elimination engine; no
library path needs it, since every commutant is one call to
cyclo.intertwiners.
"""

from groupoidreps.cyclo import Cyc, SpanBasis


def kernel_basis(ell: int, rows: list[list[Cyc]], ncols: int) -> list[list[Cyc]]:
    """Exact basis of the right null space {x : A x = 0}, one vector per free column."""
    sb = SpanBasis(ell, ncols)
    for row in rows:
        sb.add(row)
    return sb.kernel()
