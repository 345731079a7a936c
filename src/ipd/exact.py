"""Exact arithmetic over the Gaussian rationals Q(i).

Scalars are pairs of exact rationals (`fractions.Fraction`, also exported
as `Rational`).  Rational functions are stored as coprime coefficient lists
with a monic denominator, so equality of canonical forms is structural
equality.  Everything in this module is exact; floats only appear in the
`complex()` conversions used by the numerical layer.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import InputError, IrreducibleDenominator

Rational = Fraction

_FR0 = Rational(0)
_FR1 = Rational(1)


@dataclass(frozen=True)
class GaussianRational:
    """Element a + b*i of Q(i) with exact Fraction components."""

    re: Fraction = _FR0
    im: Fraction = _FR0

    def __post_init__(self):
        if not isinstance(self.re, Rational):
            object.__setattr__(self, "re", Rational(self.re))
        if not isinstance(self.im, Rational):
            object.__setattr__(self, "im", Rational(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return as_scalar(other) - self

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_scalar(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        return as_scalar(other) / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


ZERO = GaussianRational()
ONE = GaussianRational(_FR1)
I = GaussianRational(_FR0, _FR1)


def as_scalar(x) -> GaussianRational:
    """Coerce ints, Fractions, or scalar text into a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction, Rational)):
        return GaussianRational(Rational(x))
    if isinstance(x, str):
        return parse_scalar(x)
    raise InputError(f"cannot interpret {x!r} as an exact scalar")


_TOKEN_RE = _re.compile(r"[+-]?[^+-]+")


def parse_scalar(text: str) -> GaussianRational:
    """Parse scalar text like "1/2", "-3+1/4i", "i", "2-i", "-7/3i".

    Exponent notation is refused: "1e9999999" would build a ten-million-digit
    integer before any check could see it.
    """
    if not isinstance(text, str):
        raise InputError(f"scalar {text!r} must be given as text")
    s = text.strip().replace(" ", "")
    if not s:
        raise InputError("empty scalar text")
    if "e" in s.lower():
        raise InputError(f"bad scalar text {text!r}: exponent notation is not accepted")
    tokens = _TOKEN_RE.findall(s)
    if not tokens or "".join(tokens) != s:
        raise InputError(f"bad scalar text {text!r}")
    re_part = im_part = None
    try:
        for tok in tokens:
            if tok.startswith("+"):
                tok = tok[1:]
            if tok.endswith("i"):
                if im_part is not None:
                    raise ValueError("duplicate imaginary part")
                body = tok[:-1]
                if body == "":
                    im_part = _FR1
                elif body == "-":
                    im_part = -_FR1
                else:
                    im_part = Rational(body)
            else:
                if re_part is not None:
                    raise ValueError("duplicate real part")
                re_part = Rational(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar text {text!r}") from exc
    return GaussianRational(re_part or _FR0, im_part or _FR0)


def format_scalar(x: GaussianRational) -> str:
    """Canonical text form: "0", "1/2", "-3+1/4i", "-i"."""
    if x.re == 0 and x.im == 0:
        return "0"
    parts = []
    if x.re != 0:
        parts.append(str(x.re))
    if x.im != 0:
        if x.im == 1:
            imtxt = "i"
        elif x.im == -1:
            imtxt = "-i"
        else:
            imtxt = f"{x.im}i"
        if parts and not imtxt.startswith("-"):
            parts.append("+" + imtxt)
        else:
            parts.append(imtxt)
    return "".join(parts)


# ---------------------------------------------------------------------------
# polynomial helpers: coefficient lists in ascending powers, no trailing zeros


def p_normalize(coeffs: Iterable[GaussianRational]) -> tuple[GaussianRational, ...]:
    c = [as_scalar(x) for x in coeffs]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def p_degree(p: Sequence[GaussianRational]) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def p_add(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else ZERO
        y = b[k] if k < len(b) else ZERO
        out.append(x + y)
    return p_normalize(out)


def p_sub(a, b):
    return p_add(a, tuple(-x for x in b))


def p_scale(a, s: GaussianRational):
    s = as_scalar(s)
    if not s:
        return ()
    return p_normalize(x * s for x in a)


def p_mul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return p_normalize(out)


def p_divmod(a, b):
    """Exact polynomial division with remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    while len(a) >= len(b) and p_normalize(a):
        a = list(p_normalize(a))
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        c = a[-1] * inv_lead
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] = a[k + j] - c * y
        a.pop()
    return p_normalize(q), p_normalize(a)


def p_gcd(a, b):
    """Monic gcd via the Euclidean algorithm."""
    a, b = p_normalize(a), p_normalize(b)
    while b:
        a, b = b, p_divmod(a, b)[1]
    if a:
        a = p_scale(a, ONE / a[-1])
    return a


def p_derivative(p):
    return p_normalize(p[k] * GaussianRational(Rational(k)) for k in range(1, len(p)))


def p_eval(p, x: GaussianRational) -> GaussianRational:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def p_eval_complex(p, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + complex(c)
    return acc


def p_shift(p, a: GaussianRational):
    """Taylor shift: coefficients of p(u + a) in powers of u."""
    out = list(p)
    n = len(out)
    # Horner-style synthetic shift, O(n^2)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + a * out[j + 1]
    return p_normalize(out)


def p_pow_linear(a: GaussianRational, m: int):
    """(z - a)^m as a coefficient list."""
    out = (ONE,)
    base = p_normalize((-a, ONE))
    for _ in range(m):
        out = p_mul(out, base)
    return out


def p_monomial(k: int, c: GaussianRational = ONE):
    return p_normalize([ZERO] * k + [c])


# ---------------------------------------------------------------------------
# Gaussian-integer factorization, used only to enumerate candidate roots


def _gi_norm(a: int, b: int) -> int:
    return a * a + b * b


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_divmod(x, y):
    """Rounded division in Z[i]; remainder has norm < norm(y)."""
    n = _gi_norm(*y)
    pr = x[0] * y[0] + x[1] * y[1]
    pi = x[1] * y[0] - x[0] * y[1]
    q = ((2 * pr + n) // (2 * n), (2 * pi + n) // (2 * n))
    r = (x[0] - (q[0] * y[0] - q[1] * y[1]), x[1] - (q[0] * y[1] + q[1] * y[0]))
    return q, r


def _gi_gcd(x, y):
    while y != (0, 0):
        _, r = _gi_divmod(x, y)
        x, y = y, r
    return x


def _factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sqrt_minus_one_mod(p: int) -> int:
    # p = 1 mod 4; find x with x^2 = -1 mod p by trying small bases
    for a in range(2, p):
        x = pow(a, (p - 1) // 4, p)
        if (x * x) % p == p - 1:
            return x
    raise ArithmeticError(f"no sqrt(-1) mod {p}")


def _gi_prime_factors(g) -> list[tuple[tuple[int, int], int]]:
    """Factor a nonzero Gaussian integer into primes (up to units)."""
    n = _gi_norm(*g)
    if n == 1:
        return []
    factors: list[tuple[tuple[int, int], int]] = []
    rem = g
    for p, _ in sorted(_factor_int(n).items()):
        if p == 2:
            pi = (1, 1)
            candidates = [pi]
        elif p % 4 == 1:
            x = sqrt_minus_one_mod(p)
            pi = _gi_gcd((p, 0), (x, 1))
            candidates = [pi, (pi[0], -pi[1])]
        else:
            candidates = [(p, 0)]
        for pi in candidates:
            e = 0
            while True:
                q, r = _gi_divmod(rem, pi)
                if r == (0, 0) and q != (0, 0):
                    rem = q
                    e += 1
                else:
                    break
            if e:
                factors.append((pi, e))
    return factors


def _gi_divisors(g) -> list[tuple[int, int]]:
    """All divisors of g up to unit multiples (includes 1)."""
    divs = [(1, 0)]
    for pi, e in _gi_prime_factors(g):
        new = []
        for d in divs:
            cur = d
            for _ in range(e + 1):
                new.append(cur)
                cur = _gi_mul(cur, pi)
        divs = new
    # dedupe up to units
    seen = set()
    out = []
    for d in divs:
        key = max(
            (d[0], d[1]),
            (-d[1], d[0]),
            (-d[0], -d[1]),
            (d[1], -d[0]),
        )
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _integerize(p) -> list[tuple[int, int]]:
    """Scale a Q(i) polynomial to Z[i] coefficients (content ignored)."""
    lcm = 1
    for c in p:
        for q in (c.re, c.im):
            lcm = lcm * q.denominator // gcd(lcm, q.denominator)
    return [(int(c.re * lcm), int(c.im * lcm)) for c in p]


def factor_roots(den) -> dict[GaussianRational, int]:
    """Roots with multiplicity of a polynomial that splits over Q(i).

    Uses the rational-root theorem in Z[i] with repeated deflation.  Raises
    IrreducibleDenominator if a nonconstant factor has no Q(i) root.
    """
    p = p_normalize(den)
    if not p:
        raise ZeroDivisionError("zero polynomial has no root structure")
    roots: dict[GaussianRational, int] = {}
    while p_degree(p) >= 1:
        # strip roots at zero first
        k = 0
        while not p[k]:
            k += 1
        if k:
            roots[ZERO] = roots.get(ZERO, 0) + k
            p = p_normalize(p[k:])
            continue
        zp = _integerize(p)
        c0, cl = zp[0], zp[-1]
        found = None
        for d0 in _gi_divisors(c0):
            if found:
                break
            for dl in _gi_divisors(cl):
                if found:
                    break
                base_num = GaussianRational(Rational(d0[0]), Rational(d0[1]))
                base_den = GaussianRational(Rational(dl[0]), Rational(dl[1]))
                base = base_num / base_den
                for u in _UNITS:
                    cand = base * GaussianRational(Rational(u[0]), Rational(u[1]))
                    if not p_eval(p, cand):
                        found = cand
                        break
        if found is None:
            raise IrreducibleDenominator(
                "denominator does not split over the Gaussian rationals"
            )
        lin = p_normalize((-found, ONE))
        mult = 0
        while True:
            q, r = p_divmod(p, lin)
            if r:
                break
            p, mult = q, mult + 1
        roots[found] = roots.get(found, 0) + mult
    return roots


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of coprime polynomials over Q(i) with monic denominator."""

    num: tuple[GaussianRational, ...]
    den: tuple[GaussianRational, ...]

    @staticmethod
    def from_coeffs(num, den) -> "RationalFunction":
        n = p_normalize(as_scalar(c) for c in num)
        d = p_normalize(as_scalar(c) for c in den)
        if not d:
            raise InputError("zero denominator")
        if not n:
            return RationalFunction((), (ONE,))
        g = p_gcd(n, d)
        if p_degree(g) > 0:
            n = p_divmod(n, g)[0]
            d = p_divmod(d, g)[0]
        lead = d[-1]
        if lead != ONE:
            inv = ONE / lead
            n = p_scale(n, inv)
            d = p_scale(d, inv)
        return RationalFunction(n, d)

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction((), (ONE,))

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.from_coeffs(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(tuple(-c for c in self.num), self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.from_coeffs(
            p_mul(self.num, other.num), p_mul(self.den, other.den)
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction.from_coeffs(
            p_mul(self.num, other.den), p_mul(self.den, other.num)
        )

    def scale(self, s) -> "RationalFunction":
        return RationalFunction.from_coeffs(p_scale(self.num, as_scalar(s)), self.den)

    def eval_complex(self, z: complex) -> complex:
        return p_eval_complex(self.num, z) / p_eval_complex(self.den, z)

    def pole_order_at(self, a) -> int:
        """Order of pole at finite a (negative values mean a zero)."""
        a = as_scalar(a)
        lin = p_normalize((-a, ONE))
        dm = 0
        d = self.den
        while True:
            q, r = p_divmod(d, lin)
            if r:
                break
            d, dm = q, dm + 1
        if dm == 0 and self.is_zero():
            return 0
        nm = 0
        n = self.num
        while n:
            q, r = p_divmod(n, lin)
            if r:
                break
            n, nm = q, nm + 1
        return dm - nm

    def __str__(self) -> str:
        return format_rational(self)

    def __repr__(self) -> str:
        return f"RationalFunction({format_rational(self)!r})"


def differentiate(r: RationalFunction) -> RationalFunction:
    """Exact derivative via the quotient rule."""
    n, d = r.num, r.den
    return RationalFunction.from_coeffs(
        p_sub(p_mul(p_derivative(n), d), p_mul(n, p_derivative(d))),
        p_mul(d, d),
    )


def format_poly(p, var: str = "z") -> str:
    if not p:
        return "0"
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            terms.append(format_scalar(c))
            continue
        mono = var if k == 1 else f"{var}^{k}"
        if c == ONE:
            terms.append(mono)
        elif c == -ONE:
            terms.append(f"-{mono}")
        else:
            ctxt = format_scalar(c)
            if ("+" in ctxt[1:]) or ("-" in ctxt[1:]) or ctxt.endswith("i"):
                ctxt = f"({ctxt})"
            terms.append(f"{ctxt}*{mono}")
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def format_rational(r: RationalFunction, var: str = "z") -> str:
    if r.is_zero():
        return "0"
    ntxt = format_poly(r.num, var)
    if p_degree(r.den) == 0:
        return ntxt
    dtxt = format_poly(r.den, var)
    if len(r.num) > 1:
        ntxt = f"({ntxt})"
    if len(r.den) > 1:
        dtxt = f"({dtxt})"
    return f"{ntxt}/{dtxt}"


@dataclass(frozen=True)
class PartialFractionForm:
    """poly part plus pole terms (location, order k, coefficient of (z-a)^-k)."""

    poly: tuple[GaussianRational, ...]
    pole_terms: tuple[tuple[GaussianRational, int, GaussianRational], ...]

    def assemble(self) -> RationalFunction:
        total = RationalFunction.from_coeffs(self.poly, (ONE,))
        for a, k, c in self.pole_terms:
            total = total + RationalFunction.from_coeffs(
                (c,), p_pow_linear(a, k)
            )
        return total


def _series_inverse(p, order: int):
    """Truncated power-series inverse of p (p[0] != 0) to the given order."""
    inv0 = ONE / p[0]
    out = [inv0]
    for n in range(1, order):
        acc = ZERO
        for k in range(1, min(n, len(p) - 1) + 1):
            acc = acc + p[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def partial_fractions(r: RationalFunction) -> PartialFractionForm:
    """Exact partial fraction decomposition over Q(i).

    The denominator must split into linear factors over Q(i); otherwise
    IrreducibleDenominator is raised.  The principal part at each root a with
    multiplicity m is read off from the Taylor expansion of num/(den/(z-a)^m)
    at a, computed by exact truncated series division.
    """
    if r.is_zero():
        return PartialFractionForm((), ())
    poly, rem = p_divmod(r.num, r.den)
    terms: list[tuple[GaussianRational, int, GaussianRational]] = []
    if rem:
        roots = factor_roots(r.den)
        for a in sorted(roots, key=scalar_sort_key):
            m = roots[a]
            q, check = p_divmod(r.den, p_pow_linear(a, m))
            assert not check
            num_s = p_shift(rem, a)
            q_s = p_shift(q, a)
            inv = _series_inverse(q_s, m)
            # taylor coefficients t_j of rem/q at a, j = 0..m-1
            for j in range(m):
                t = ZERO
                for k in range(min(j, len(num_s) - 1) + 1):
                    t = t + num_s[k] * inv[j - k]
                if t:
                    terms.append((a, m - j, t))
    return PartialFractionForm(p_normalize(poly), tuple(terms))


def scalar_sort_key(x: GaussianRational):
    return (x.re, x.im)


def change_chart_infinity(r: RationalFunction) -> RationalFunction:
    """Coefficient of the same 1-form in the chart w = 1/z.

    If alpha = f(z) dz then alpha = -f(1/w)/w^2 dw; this returns the new
    coefficient as a rational function of w.  Applying the map twice is the
    identity.
    """
    if r.is_zero():
        return r
    dn, dd = p_degree(r.num), p_degree(r.den)
    rev_num = p_normalize(reversed(r.num))
    rev_den = p_normalize(reversed(r.den))
    e = dd - dn - 2
    num, den = rev_num, rev_den
    if e >= 0:
        num = p_mul(num, p_monomial(e))
    else:
        den = p_mul(den, p_monomial(-e))
    return RationalFunction.from_coeffs(tuple(-c for c in num), den)
