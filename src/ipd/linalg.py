"""Linear algebra over the Gaussian rationals.

Matrices are lists of rows of GaussianRational.  `row_echelon`, `nullspace`
and `solve` are exact fraction Gauss elimination with first-nonzero
pivoting, deterministic and meant for small systems (`reduce_form`).

`SpanTracker` finds the ranks of the large de Rham lattice maps.  It takes
vectors over Q(i) but eliminates over F_p, for a prime p = 1 (mod 4) with i
sent to a fixed square root of -1 mod p.  On the elements of Q(i) whose
denominators are prime to p this map is a ring homomorphism (BadPrime is
raised on any other), so a rank mod p never exceeds the rank over Q(i) and
vectors independent mod p are independent over Q(i).  Equality of the ranks
is for the caller to certify; `derham` does it with kernel = h0.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache

from .exact import GaussianRational, ONE, ZERO, sqrt_minus_one_mod

# Two primes = 1 (mod 4) just below 2^62: the second is tried when the first
# fails to reduce the data or to certify a rank.
PRIMES = (2**62 - 87, 2**62 - 143)

Matrix = list[list[GaussianRational]]


def mat_copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def row_echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    a = mat_copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    return len(row_echelon(m)[1])


def nullspace(m: Matrix, cols: int | None = None) -> list[list[GaussianRational]]:
    """Basis of the right nullspace, one vector per free column, in column order."""
    if not m:
        n = cols or 0
        return [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    n = len(m[0])
    ech, pivots = row_echelon(m)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc]
        basis.append(v)
    return basis


def solve(m: Matrix, b: list[GaussianRational]) -> list[GaussianRational] | None:
    """One solution of m x = b, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if not m:
        return None if any(b) else []
    n = len(m[0])
    aug = [row[:] + [bx] for row, bx in zip(m, b)]
    ech, pivots = row_echelon(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][n]
    return x


class BadPrime(ArithmeticError):
    """The data has no faithful image mod p."""


@lru_cache(maxsize=None)
def _sqrt_minus_one(p: int) -> int:
    return sqrt_minus_one_mod(p)


def _rational_mod(q, p: int) -> int:
    d = q.denominator % p
    if not d:
        raise BadPrime(f"denominator of {q} vanishes mod {p}")
    return q.numerator * pow(d, -1, p) % p if d != 1 else q.numerator % p


def reduce_mod(x: GaussianRational, p: int) -> int:
    """Image of x in F_p under i -> sqrt(-1) mod p; BadPrime if it has none."""
    re = _rational_mod(x.re, p)
    if not x.im:
        return re
    return (re + _sqrt_minus_one(p) * _rational_mod(x.im, p)) % p


def require_distinct_mod(points, p: int) -> None:
    """BadPrime unless distinct points of Q(i) stay distinct mod p."""
    images = [reduce_mod(a, p) for a in points]
    if len(set(images)) != len(images):
        raise BadPrime(f"two of the points {[str(a) for a in points]} coincide mod {p}")


class SpanTracker:
    """Incremental span of Q(i) vectors, eliminated mod p.

    Rows are kept in echelon form keyed by pivot index: a row is zero before
    its pivot, 1 at it, and is stored from the pivot on.  `add` returns True
    when the vector enlarged the span mod p.
    """

    def __init__(self, dim: int, p: int | None = None):
        self.dim = dim
        self.p = PRIMES[0] if p is None else p
        self.rows: dict[int, list[int]] = {}
        self._pivots: list[int] = []

    def copy(self) -> "SpanTracker":
        # rows are never changed once stored, so they can be shared
        out = SpanTracker(self.dim, self.p)
        out.rows = dict(self.rows)
        out._pivots = self._pivots[:]
        return out

    def add(self, v: list[GaussianRational]) -> bool:
        p = self.p
        red = [reduce_mod(x, p) if x else 0 for x in v]
        for q in self._pivots:
            f = red[q]
            if f:
                red[q:] = [(x - f * y) % p for x, y in zip(red[q:], self.rows[q])]
        pivot = next((i for i, x in enumerate(red) if x), None)
        if pivot is None:
            return False
        inv = pow(red[pivot], -1, p)
        self.rows[pivot] = [x * inv % p for x in red[pivot:]]
        insort(self._pivots, pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
