"""Algebraic de Rham cohomology of a rank-1 connection on P^1.

H^1 is computed as the cokernel of nabla between two finite-dimensional
lattices of global sections: rational functions with prescribed pole bounds
on the singular divisor D, mapping to 1-forms with bounds raised by
max(pole order, 1) at every point.  With coupled bounds the index of the
lattice map is independent of the bound sizes, so stability of the kernel
and cokernel under doubling certifies that the lattice saw the whole
cohomology.

The map is written down exactly over Q(i), one column per section
coordinate, in closed form from the partial fractions of alpha.  Its rank is
found mod a prime p (`linalg.SpanTracker`), which can only under-count it.
The bounds put the flat section in the lattice, so the kernel over Q(i) is
h0; a kernel mod p equal to h0 therefore proves that the rank mod p is the
rank over Q(i), and every dimension reported is exact.  A prime that cannot
reduce the data, or whose kernel is not h0, gives way to the next one in
`linalg.PRIMES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .connection import (
    Connection,
    INFINITY,
    Point,
    SingularPointData,
    point_key,
    point_str,
    profile_at,
    singular_profile,
)
from .errors import InputError, InconsistentRank, LatticeTooSmall
from .exact import (
    GaussianRational,
    ONE,
    PartialFractionForm,
    RationalFunction,
    ZERO,
    as_scalar,
    p_pow_linear,
    partial_fractions,
)
from .linalg import BadPrime, SpanTracker, require_distinct_mod, solve

DEFAULT_SECTION_MARGIN = 2


# ---------------------------------------------------------------------------
# function lattices: rational functions with bounded poles along D


@dataclass(frozen=True)
class FunctionLattice:
    """Rational functions with pole order <= bound at each finite point of D
    and pole order <= inf_pole at infinity (negative = forced vanishing).

    A section lattice always has inf_pole >= 0; a form lattice has
    inf_pole = -2 when infinity is not singular (1-forms regular there).
    """

    finite_points: tuple[GaussianRational, ...]
    finite_bounds: tuple[int, ...]
    inf_pole: int

    def ambient(self) -> list[tuple]:
        """Coordinate labels: ("pp", a, k) for (z-a)^-k, ("poly", p) for z^p."""
        coords: list[tuple] = []
        for a, n in zip(self.finite_points, self.finite_bounds):
            for k in range(1, n + 1):
                coords.append(("pp", a, k))
        for p in range(0, self.inf_pole + 1):
            coords.append(("poly", p))
        return coords

    def basis_vectors(self) -> list[list[GaussianRational]]:
        coords = self.ambient()
        n = len(coords)
        units = [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]
        if self.inf_pole >= -1:
            return units
        if self.inf_pole < -2:
            raise ValueError("forced vanishing at infinity beyond order 2")
        # vanishing to order 2 at infinity: the residues sum to zero.  The
        # first residue coordinate pays for the others (echelon nullspace).
        residues = [i for i, coord in enumerate(coords) if coord[2] == 1]
        first = residues[0]
        for i in residues[1:]:
            units[i][first] = -ONE
        return units[:first] + units[first + 1:]


def element_function(coord: tuple) -> RationalFunction:
    if coord[0] == "pp":
        _, a, k = coord
        return RationalFunction.from_coeffs((ONE,), p_pow_linear(a, k))
    _, p = coord
    return RationalFunction.from_coeffs([ZERO] * p + [ONE], (ONE,))


def vector_function(vec, coords) -> RationalFunction:
    total = RationalFunction.zero()
    for x, coord in zip(vec, coords):
        if x:
            total = total + element_function(coord).scale(x)
    return total


def _place(terms: dict, index: dict[tuple, int]) -> list[GaussianRational]:
    """Coordinate vector of {coordinate label: coefficient}, with index
    numbering the lattice coordinates; InputError if a nonzero coefficient
    falls outside the lattice."""
    out = [ZERO] * len(index)
    for key, coeff in terms.items():
        if not coeff:
            continue
        i = index.get(key)
        if i is None:
            if key[0] == "pp":
                raise InputError(
                    f"pole of order {key[2]} at {point_str(key[1])} exceeds the lattice bounds"
                )
            raise InputError(f"polynomial degree {key[1]} exceeds the lattice bounds")
        out[i] = coeff
    return out


def _index(coords: list[tuple]) -> dict[tuple, int]:
    return {c: i for i, c in enumerate(coords)}


def _terms(pf: PartialFractionForm) -> dict:
    """A partial fraction form as {coordinate label: coefficient}."""
    out = {("pp", a, k): coeff for a, k, coeff in pf.pole_terms}
    for p, coeff in enumerate(pf.poly):
        if coeff:
            out[("poly", p)] = coeff
    return out


def decompose(pf: PartialFractionForm, coords: list[tuple]) -> list[GaussianRational]:
    """Ambient coordinates of a rational function, given by its partial
    fractions; InputError if it escapes."""
    return _place(_terms(pf), _index(coords))


# ---------------------------------------------------------------------------
# nabla in closed form


def _add_term(out: dict, key: tuple, coeff: GaussianRational) -> None:
    out[key] = out[key] + coeff if key in out else coeff


def _times_z(terms: dict) -> dict:
    """z * f, using z (z-b)^-r = (z-b)^-(r-1) + b (z-b)^-r."""
    out: dict = {}
    for key, coeff in terms.items():
        if key[0] == "poly":
            _add_term(out, ("poly", key[1] + 1), coeff)
            continue
        _, b, r = key
        _add_term(out, ("pp", b, r - 1) if r > 1 else ("poly", 0), coeff)
        _add_term(out, key, b * coeff)
    return out


def _over_linear(terms: dict, a: GaussianRational, inverse: dict) -> dict:
    """f / (z-a), with inverse[b] = 1/(a-b) for every other pole b of f.

    For b != a and d = a - b,
        (z-b)^-r / (z-a) = d^-r (z-a)^-1 - sum_{n<r} d^-(n+1) (z-b)^-(r-n),
    and a polynomial P splits as P(a)/(z-a) plus the synthetic quotient.
    """
    out: dict = {}
    poly = [ZERO] * (1 + max((key[1] for key in terms if key[0] == "poly"), default=-1))
    for key, coeff in terms.items():
        if key[0] == "poly":
            poly[key[1]] = coeff
            continue
        _, b, r = key
        if b == a:
            _add_term(out, ("pp", a, r + 1), coeff)
            continue
        inv, power = inverse[b], coeff
        for n in range(r):
            power = power * inv
            _add_term(out, ("pp", b, r - n), -power)
        _add_term(out, ("pp", a, 1), power)
    carry = ZERO
    for s in range(len(poly) - 1, 0, -1):
        carry = poly[s] + a * carry
        _add_term(out, ("poly", s - 1), carry)
    if poly:
        _add_term(out, ("pp", a, 1), poly[0] + a * carry)
    return out


def nabla_columns(
    alpha: PartialFractionForm, sec_coords: list[tuple], form_coords: list[tuple]
) -> list[list[GaussianRational]]:
    """nabla of each section coordinate, in form coordinates.

    nabla((z-a)^-k) = -k (z-a)^-(k+1) + (z-a)^-k alpha and
    nabla(z^p) = p z^(p-1) + z^p alpha; the products with alpha are built
    up one factor 1/(z-a) or z at a time from its partial fractions.
    """
    alpha_terms = _terms(alpha)
    poles = {key[1] for key in alpha_terms if key[0] == "pp"}
    inverses = {a: {b: ONE / (a - b) for b in poles if b != a} for a in poles}
    chains: dict = {}

    def times_alpha(coord):
        # (z-a)^-k alpha from (z-a)^-(k-1) alpha, z^p alpha from z^(p-1) alpha
        if coord in chains:
            return chains[coord]
        if coord[0] == "pp":
            _, a, k = coord
            prev = alpha_terms if k == 1 else times_alpha(("pp", a, k - 1))
            out = _over_linear(prev, a, inverses[a])
        else:
            p = coord[1]
            out = alpha_terms if p == 0 else _times_z(times_alpha(("poly", p - 1)))
        chains[coord] = out
        return out

    index = _index(form_coords)
    columns = []
    for coord in sec_coords:
        image = dict(times_alpha(coord))
        if coord[0] == "pp":
            _, a, k = coord
            _add_term(image, ("pp", a, k + 1), as_scalar(-k))
        elif coord[1] > 0:
            _add_term(image, ("poly", coord[1] - 1), as_scalar(coord[1]))
        columns.append(_place(image, index))
    return columns


# ---------------------------------------------------------------------------
# bounds


def _flat_section_orders(profile: Sequence[SingularPointData]) -> dict[Point, int]:
    """Pole orders of the flat section prod (z-a)^-s when it is meromorphic."""
    orders: dict[Point, int] = {}
    total = 0
    for sp in profile:
        if sp.location is INFINITY:
            continue
        s = sp.residue
        if s.is_integer():
            total += int(s.re)
            if s.re > 0:
                orders[sp.location] = int(s.re)
    # at infinity the flat section behaves like z^-total
    if -total > 0:
        orders[INFINITY] = -total
    return orders


def default_section_bounds(
    profile: Sequence[SingularPointData], h0: int
) -> dict[Point, int]:
    bounds = {
        sp.location: sp.pole_order + DEFAULT_SECTION_MARGIN for sp in profile
    }
    if h0 == 1:
        for p, order in _flat_section_orders(profile).items():
            if p in bounds:
                bounds[p] = max(bounds[p], order)
    return bounds


def _lattice_pair(profile, bounds: dict[Point, int]):
    finites = [sp for sp in profile if sp.location is not INFINITY]
    pts = tuple(sp.location for sp in finites)
    sec_fin = tuple(bounds[sp.location] for sp in finites)
    form_fin = tuple(
        bounds[sp.location] + max(sp.pole_order, 1) for sp in finites
    )
    inf_sp = next((sp for sp in profile if sp.location is INFINITY), None)
    if inf_sp is not None:
        b_inf = bounds[INFINITY]
        sec_inf = b_inf
        form_inf = b_inf + max(inf_sp.pole_order, 1) - 2
    else:
        sec_inf = 0
        form_inf = -2
    return (
        FunctionLattice(pts, sec_fin, sec_inf),
        FunctionLattice(pts, form_fin, form_inf),
    )


# ---------------------------------------------------------------------------
# the lattice map and its cokernel


def _candidate_key(vec, coords):
    """Pole-complexity sort key: (total pole order, worst single pole)."""
    per_point: dict = {}
    poly_deg = -1
    for x, coord in zip(vec, coords):
        if not x:
            continue
        if coord[0] == "pp":
            _, a, k = coord
            key = ("pp", a)
            per_point[key] = max(per_point.get(key, 0), k)
        else:
            poly_deg = max(poly_deg, coord[1])
    total = sum(per_point.values())
    worst = max(per_point.values(), default=0)
    inf_order = 0
    if poly_deg >= 0:
        inf_order = poly_deg + 2
    elif per_point:
        # pure principal parts: the form pole order at infinity is 2-k for
        # the lowest k present, never more than 1
        min_k = min(
            coord[2]
            for x, coord in zip(vec, coords)
            if x and coord[0] == "pp"
        )
        inf_order = max(0, 2 - min_k)
    total += inf_order
    worst = max(worst, inf_order)
    return (total, worst)


class _Level:
    """The lattice pair at one set of bounds and, once eliminated, the rank
    mod p of nabla between them."""

    def __init__(self, profile, bounds: dict[Point, int]):
        self.bounds = bounds
        sec, form = _lattice_pair(profile, bounds)
        self.points = sec.finite_points
        self.sec_coords = sec.ambient()
        self.form_coords = form.ambient()
        self.form_basis = form.basis_vectors()

    def eliminated(self, tracker: SpanTracker, embed: list[int]) -> None:
        """Record the tracker holding this level's image; embed maps this
        level's form coordinates to the tracker's."""
        self.tracker, self.embed = tracker, embed
        self.ker_dim = len(self.sec_coords) - tracker.rank
        self.coker_dim = len(self.form_basis) - tracker.rank

    def select_basis(self) -> list[list[GaussianRational]]:
        ranked = sorted(
            range(len(self.form_basis)),
            key=lambda i: (
                _candidate_key(self.form_basis[i], self.form_coords),
                i,
            ),
        )
        selected = []
        for i in ranked:
            if len(selected) == self.coker_dim:
                break
            v = [ZERO] * self.tracker.dim
            for j, x in zip(self.embed, self.form_basis[i]):
                v[j] = x
            if self.tracker.add(v):
                selected.append(self.form_basis[i])
        if len(selected) != self.coker_dim:
            raise LatticeTooSmall("could not complete a cokernel basis")
        return selected


def _eliminate(alpha, profile, bounds, h0: int, label: str, p: int):
    """nabla at bounds B and 2B from one matrix, eliminated mod p, with both
    ranks certified by kernel = h0.

    The matrix is built at 2B with the columns of the B sections first.
    Those lie in the B form lattice, which embeds in the 2B one, so the rank
    after them is the rank at B and the rank after all columns that at 2B.
    """
    small, big = _Level(profile, bounds), _Level(profile, _scaled_bounds(bounds, 2))
    require_distinct_mod(small.points, p)
    first = set(small.sec_coords)
    order = small.sec_coords + [c for c in big.sec_coords if c not in first]
    columns = nabla_columns(alpha, order, big.form_coords)
    index = _index(big.form_coords)
    tracker = SpanTracker(len(index), p)
    n = len(small.sec_coords)
    for col in columns[:n]:
        tracker.add(col)
    small.eliminated(tracker.copy(), [index[c] for c in small.form_coords])
    for col in columns[n:]:
        tracker.add(col)
    big.eliminated(tracker, list(range(len(index))))
    for level in (small, big):
        if level.ker_dim != h0:
            raise LatticeTooSmall(
                f"lattice kernel {level.ker_dim} disagrees with h0 = {h0} for {label}"
            )
    return small, big


def _cohomology_level(alpha, profile, bounds, h0: int, label: str, p: int) -> _Level:
    """The certified level whose cokernel is H^1: bounds B if the cokernel at
    2B agrees, else 2B if the one at 4B agrees."""
    small, big = _eliminate(alpha, profile, bounds, h0, label, p)
    if small.coker_dim != big.coker_dim:
        small, big = _eliminate(
            alpha, profile, _scaled_bounds(bounds, 2), h0, label, p
        )
        if small.coker_dim != big.coker_dim:
            raise LatticeTooSmall(
                f"cokernel dimension unstable under enlargement for {label}"
            )
    if all(sp.pole_order >= 1 for sp in profile):
        chi = 2 - sum(sp.pole_order for sp in profile)
        if small.coker_dim - small.ker_dim != -chi:
            raise LatticeTooSmall(
                f"cokernel violates the Euler characteristic for {label}"
            )
    return small


# ---------------------------------------------------------------------------
# public operations


def h0_dimension(c: Connection) -> int:
    """1 iff every pole order is <= 1 and every residue is an integer."""
    for sp in singular_profile(c):
        if sp.pole_order >= 2 or not sp.residue.is_integer():
            return 0
    return 1


@dataclass(frozen=True)
class CohomologyBasis:
    h0_dim: int
    h1_dim: int
    basis: tuple[RationalFunction, ...]
    section_bounds: tuple[tuple[Point, int], ...]

    def bounds_dict(self) -> dict[Point, int]:
        return dict(self.section_bounds)


def _scaled_bounds(bounds: dict[Point, int], factor: int) -> dict[Point, int]:
    return {p: b * factor for p, b in bounds.items()}


def h1_basis(
    c: Connection, extra_bounds: dict[Point, int] | None = None
) -> CohomologyBasis:
    """Echelon basis of H^1_dR, preferring representatives with low pole order.

    Takes the cokernel at the default bounds if doubling them does not change
    it, else at doubled bounds if doubling once more does not; raises
    LatticeTooSmall if neither holds.  Each rank is found mod a prime of
    linalg.PRIMES and certified by kernel = h0; a prime that cannot reduce
    the data or certify a rank gives way to the next one.
    """
    profile = singular_profile(c)
    h0 = h0_dimension(c)
    bounds = default_section_bounds(profile, h0)
    if extra_bounds:
        for p, b in extra_bounds.items():
            if p not in bounds:
                raise InputError(f"{point_str(p)} is not on the singular divisor")
            bounds[p] = max(bounds[p], b)

    alpha = partial_fractions(c.alpha)
    failure: Exception | None = None
    for p in linalg.PRIMES:
        try:
            level = _cohomology_level(alpha, profile, bounds, h0, c.label, p)
            selected = level.select_basis()
        except (BadPrime, LatticeTooSmall) as exc:
            failure = exc
            continue
        forms = tuple(vector_function(v, level.form_coords) for v in selected)
        return CohomologyBasis(
            h0_dim=h0,
            h1_dim=level.coker_dim,
            basis=forms,
            section_bounds=tuple(
                sorted(level.bounds.items(), key=lambda kv: point_key(kv[0]))
            ),
        )
    if isinstance(failure, LatticeTooSmall):
        raise failure
    raise LatticeTooSmall(f"no prime reduces the lattice of {c.label}: {failure}")


def _form_orders(profile, pf: PartialFractionForm) -> dict[Point, int]:
    """Pole orders at the points of D of the form with partial fractions pf;
    InputError off-divisor.  At infinity z^n dz has order n + 2 and
    (z-a)^-1 dz order 1, while (z-a)^-k dz is holomorphic for k >= 2."""
    locations = {sp.location for sp in profile}
    orders: dict[Point, int] = {}
    for a, k, coeff in pf.pole_terms:
        if a not in locations:
            raise InputError(
                f"form has a pole at {point_str(a)} off the singular divisor"
            )
        orders[a] = max(orders.get(a, 0), k)
    residues = sum((coeff for _, k, coeff in pf.pole_terms if k == 1), ZERO)
    inf_order = len(pf.poly) + 1 if pf.poly else int(bool(residues))
    if inf_order > 0:
        if INFINITY not in locations:
            raise InputError("form has a pole at infinity off the singular divisor")
        orders[INFINITY] = inf_order
    return orders


def reduce_form(
    c: Connection, basis: CohomologyBasis, form: RationalFunction
) -> list[GaussianRational]:
    """Coordinates of a 1-form's class in the given cohomology basis.

    The lattice is enlarged as needed to contain the form; the basis classes
    stay those of `basis`, so coordinates are stable across enlargements.
    """
    profile = singular_profile(c)
    bounds = basis.bounds_dict()
    pf = partial_fractions(form)
    for p, order in _form_orders(profile, pf).items():
        need = order - max(profile_at(c, p).pole_order, 1)
        if need > bounds[p]:
            bounds[p] = need
    sec, form_lattice = _lattice_pair(profile, bounds)
    form_coords = form_lattice.ambient()
    image_cols = nabla_columns(
        partial_fractions(c.alpha), sec.ambient(), form_coords
    )
    target = decompose(pf, form_coords)
    basis_cols = [decompose(partial_fractions(b), form_coords) for b in basis.basis]
    columns = image_cols + basis_cols
    rows = [[col[r] for col in columns] for r in range(len(form_coords))]
    x = solve(rows, target)
    if x is None:
        raise LatticeTooSmall("form did not reduce against the cohomology basis")
    return x[len(image_cols):]


@dataclass(frozen=True)
class EulerData:
    chi_dr: int
    chi_top: int
    non_reduced: bool


def euler_characteristics(
    rank: int, genus: int, pole_data: Sequence[Sequence[tuple[int, int]]], n: int
) -> EulerData:
    """Algebraic and topological Euler characteristics from pole data.

    pole_data lists, per singular point, the blocks (pole order m, dim M).
    A block with m = 0 is admitted but flagged, since the divisor is then not
    effective at that point and the chi_dr formula does not apply.
    """
    if n != len(pole_data):
        raise InputError(f"n = {n} but pole data lists {len(pole_data)} points")
    non_reduced = False
    weighted = 0
    for blocks in pole_data:
        total = 0
        for m, dim in blocks:
            if m < 0 or dim < 1:
                raise InputError("pole orders must be >= 0 and block dims >= 1")
            if m == 0:
                non_reduced = True
            total += dim
            weighted += m * dim
        if total != rank:
            raise InconsistentRank(
                f"block dimensions sum to {total}, expected rank {rank}"
            )
    chi_dr = -rank * (2 * genus - 2) - weighted
    chi_top = -rank * (2 * genus - 2 + n)
    return EulerData(chi_dr=chi_dr, chi_top=chi_top, non_reduced=non_reduced)


def section_lattice_functions(
    c: Connection, basis: CohomologyBasis
) -> list[RationalFunction]:
    """The section-lattice basis underlying a cohomology computation."""
    profile = singular_profile(c)
    sec, _ = _lattice_pair(profile, basis.bounds_dict())
    coords = sec.ambient()
    return [vector_function(v, coords) for v in sec.basis_vectors()]


def nabla_applied(c: Connection, g: RationalFunction) -> RationalFunction:
    """Coefficient of nabla(g) = (g' + g f_alpha) dz."""
    from .exact import differentiate

    return differentiate(g) + g * c.alpha
