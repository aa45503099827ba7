"""Exact factorization over Z of polynomials in the declared parameters.

The parametric solver splits cases on the irreducible factors of pivot
polynomials.  A square-free primitive univariate polynomial is factored by
Zassenhaus's method: modulo a prime that keeps it square-free, Hensel
lifting, recombination by trial division (Zassenhaus, J. Number Theory 1
(1969); von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-16).
With several parameters the content in each parameter is split off first;
a primitive polynomial that is linear in a parameter, or whose image at an
integer point is irreducible of the same degree, is irreducible; anything
else goes through Kronecker substitution.

Only the parametric solver imports this module, and only to factor a
polynomial that it cannot see to be irreducible (lik.linalg answers the
linear case itself), so most runs never load it.

Every polynomial over Z is a ParamCoeff with int values, a univariate one
a ParamCoeff in one parameter, so exact division, derivatives and
coefficients come from lik.params; coefficient lists, lowest degree first,
without trailing zeros, are only residues mod p and p^k.  One
recombination step, trial division by the candidates that subsets of an
image's factors decode to, serves both Zassenhaus and Kronecker.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Iterator

from .params import ParamCoeff, divexact


def irreducible_factors(pc: ParamCoeff) -> list[ParamCoeff]:
    """The distinct irreducible factors of pc over Q that involve a
    parameter, each with coprime integer coefficients (unique up to sign);
    the rational content and multiplicities are dropped."""
    if pc.is_zero:
        return []
    return _factor(pc.scale(math.lcm(*(c.denominator for _, c in pc.items()))))


def _factor(f: ParamCoeff) -> list[ParamCoeff]:
    """Distinct irreducible factors of positive degree of a nonzero f."""
    live = sorted(f.parameters())
    if not live:
        return []
    if len(live) == 1:
        return [g for g, _ in _univariate_factors(f, live[0])]
    # split off the content in each parameter
    for x in live:
        c = _content(f, x)
        if not c.is_rational:
            return _factor(c) + _factor(divexact(f, c))
    # f is primitive in every parameter, so each of its factors involves
    # live[0], and f / gcd(f, df/dlive[0]) is its square-free part
    f = divexact(f, _gcd(f, f.derivative(live[0])))
    if any(f.degree_in(x) == 1 for x in live) or _irreducible_image(f, live):
        return [f]
    return _kronecker(f, live)


def _normal(f: ParamCoeff) -> ParamCoeff:
    """f or -f, whichever has a positive leading coefficient."""
    return -f if f.leading()[1] < 0 else f


def _gcd(f: ParamCoeff, g: ParamCoeff) -> ParamCoeff:
    """Greatest common divisor in Z[params] with a positive leading
    coefficient: the gcd of the contents in one parameter times that of the
    primitive parts, by a primitive pseudo-remainder sequence."""
    if f.is_zero or g.is_zero:
        return _normal(g if f.is_zero else f)
    live = sorted(f.parameters() | g.parameters())
    if not live:
        return ParamCoeff.from_value(math.gcd(f.value(), g.value()))
    x = live[0]
    cf, cg = _content(f, x), _content(g, x)
    f, g = divexact(f, cf), divexact(g, cg)
    if f.degree_in(x) < g.degree_in(x):
        f, g = g, f
    while not g.is_zero and g.degree_in(x):
        f, g = g, _primitive(_prem(f, g, x), x)
    h = f if g.is_zero else ParamCoeff.one()  # a nonzero g of degree 0 is a unit
    return _normal(_gcd(cf, cg) * h)


def _content(f: ParamCoeff, x: str) -> ParamCoeff:
    """gcd of the coefficients of f as a polynomial in x."""
    c = ParamCoeff.zero()
    for k in range(f.degree_in(x) + 1):
        c = _gcd(c, f.coeff_of(x, k))
        if c == 1:
            break
    return c


def _primitive(f: ParamCoeff, x: str) -> ParamCoeff:
    return f if f.is_zero else divexact(f, _content(f, x))


def _prem(f: ParamCoeff, g: ParamCoeff, x: str) -> ParamCoeff:
    """A pseudo-remainder of f by g in x: lc^k*f - q*g of degree below
    deg g, where lc is the leading coefficient of g in x."""
    dg = g.degree_in(x)
    lc = g.coeff_of(x, dg)
    while not f.is_zero and (df := f.degree_in(x)) >= dg:
        lead = f.coeff_of(x, df) * ParamCoeff.param(x) ** (df - dg)
        f = lc * f - lead * g
    return f


_POINTS = (2, -3, 5, -2, 3, -5, 7, 4)


def _irreducible_image(f: ParamCoeff, live: list[str]) -> bool:
    """True if some integer point for all parameters but one keeps the
    degree of f in that one and gives an irreducible square-free image.
    Then f, primitive in every parameter, is irreducible too: a splitting
    of f would split the image.  False proves nothing."""
    for x in live:
        others = [y for y in live if y != x]
        for t in range(4):
            point = {y: _POINTS[(t + k) % len(_POINTS)] for k, y in enumerate(others)}
            image = [0] * (f.degree_in(x) + 1)
            for m, c in f.items():
                e = dict(m)
                image[e.pop(x, 0)] += c * math.prod(point[y] ** k for y, k in e.items())
            if image[-1]:
                factors = _univariate_factors(_univariate(x, image), x)
                if len(factors) == 1 and factors[0][1] == 1:
                    return True
    return False


def _kronecker(f: ParamCoeff, live: list[str]) -> list[ParamCoeff]:
    """Irreducible factors of f, primitive and square-free in every
    parameter, by Kronecker substitution: parameter x becomes t^w_x with
    mixed-radix weights w over the bounds deg_x f + 1, which no factor of f
    exceeds, so a factor's image decodes back to it.  The candidates are
    decoded products of the image's irreducible factors; t is live[0]."""
    radix = [f.degree_in(x) + 1 for x in live]
    places = [(x, math.prod(radix[:i]), r) for i, (x, r) in enumerate(zip(live, radix))]
    weight = {x: w for x, w, _ in places}
    t = live[0]
    image = [0] * math.prod(radix)
    for m, c in f.items():
        image[sum(weight[x] * e for x, e in m)] = c

    def decode(subset: list[ParamCoeff]) -> ParamCoeff:
        prod = _dense(functools.reduce(operator.mul, subset), t)
        return _normal(ParamCoeff({
            tuple((x, e // w % r) for x, w, r in places if e // w % r): c
            for e, c in enumerate(prod)
            if c
        }))

    pieces = [g for g, k in _univariate_factors(_univariate(t, image), t) for _ in range(k)]
    return _recombine(f, pieces, decode)


def _recombine(f: ParamCoeff, pieces: list, candidate) -> list[ParamCoeff]:
    """Irreducible factors of f from the irreducible factors (pieces) of an
    image of f: for subsets of the pieces, smallest first, the candidate
    that the subset decodes to is a factor if it divides f.  A candidate
    whose value at some (k, ..., k), k = 0, 1, -1, 2, does not divide f's
    is skipped without dividing."""
    found: list[ParamCoeff] = []
    size = 1
    while 2 * size <= len(pieces):
        at_f = _at_points(f)
        for subset in itertools.combinations(range(len(pieces)), size):
            g = candidate([pieces[j] for j in subset])
            if any(fk % gk if gk else fk for fk, gk in zip(at_f, _at_points(g))):
                continue
            if (q := divexact(f, g)) is not None:
                found.append(g)
                f = q
                pieces = [p for j, p in enumerate(pieces) if j not in subset]
                break
        else:
            size += 1
    return found + [_normal(f)]


def _at_points(f: ParamCoeff) -> list[int]:
    """The values of f at (k, ..., k) for k = 0, 1, -1 and 2."""
    terms = [(c, sum(e for _, e in m)) for m, c in f.items()]
    return [sum(c * k**d for c, d in terms) for k in (0, 1, -1, 2)]


# -- univariate factorization over Z ----------------------------------------


def _dense(f: ParamCoeff, x: str) -> list[int]:
    """The coefficients of f in Z[x], lowest degree first."""
    out = [0] * (f.degree_in(x) + 1)
    for m, c in f.items():
        out[m[0][1] if m else 0] = c
    return out


def _univariate(x: str, coeffs: list[int]) -> ParamCoeff:
    """The polynomial in x with the given coefficients, lowest degree first."""
    return ParamCoeff({((x, e),) if e else (): c for e, c in enumerate(coeffs)})


def _univariate_factors(f: ParamCoeff, x: str) -> list[tuple[ParamCoeff, int]]:
    """Irreducible factors of positive degree of a nonzero f in Z[x], with
    multiplicities: the power of x, then Zassenhaus on each part of the
    square-free decomposition."""
    dense = _dense(f, x)
    low = next(e for e, c in enumerate(dense) if c)
    out = [(ParamCoeff.param(x), low)] if low else []
    for g, k in _square_free(_univariate(x, dense[low:]), x):
        out += [(h, k) for h in _zassenhaus(g, x)]
    return out


def _square_free(f: ParamCoeff, x: str) -> list[tuple[ParamCoeff, int]]:
    """Yun's square-free decomposition of f in Z[x]: pairwise coprime
    primitive g_k of positive degree with f = c * prod g_k^k."""
    df = f.derivative(x)
    c = _gcd(f, df)
    w, y = divexact(f, c), divexact(df, c)
    out, k = [], 1
    while not w.is_rational:
        z = y - w.derivative(x)
        g = _gcd(w, z)
        if not g.is_rational:
            out.append((g, k))
        w, y = divexact(w, g), divexact(z, g)
        k += 1
    return out


def _odd_primes() -> Iterator[int]:
    for q in itertools.count(3, 2):
        if all(q % r for r in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _zassenhaus(f: ParamCoeff, x: str) -> list[ParamCoeff]:
    """Irreducible factors of a primitive square-free f in Z[x] with
    f(0) != 0 and a positive leading coefficient: factor modulo the best of
    up to three primes p that keep f square-free, Hensel-lift past twice
    the Landau-Mignotte bound m, then recombine: a subset's candidate is
    lc(f) times its product in symmetric residues mod m, made primitive."""
    dense = _dense(f, x)
    n = len(dense) - 1
    best = None
    tried = 0
    for p in _odd_primes():
        if dense[-1] % p == 0:
            continue
        fp = _monic(dense, p)
        if len(_gcd_mod(fp, _mod([k * c for k, c in enumerate(fp)][1:], p), p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for d, g in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        tried += 1
        if count <= 2 or tried == 3:
            break
    count, p, ddf = best
    if count == 1:
        return [f]
    rng = random.Random(p)
    modular = [h for d, g in ddf for h in _equal_degree(g, d, p, rng)]
    bound = 2 * (math.isqrt(sum(c * c for c in dense)) + 1) * 2**n * abs(dense[-1])
    m = p
    while m <= bound:
        m *= p

    def from_lifted(subset: list[list[int]]) -> ParamCoeff:
        g = [dense[-1]]
        for h in subset:
            g = _mod(_mul_dense(g, h), m)
        g = _univariate(x, [c - m if 2 * c > m else c for c in g])
        return _normal(_primitive(g, x))

    return _recombine(f, _hensel(dense, modular, p, m), from_lifted)


def _hensel(f: list[int], factors: list[list[int]], p: int, m: int) -> list[list[int]]:
    """Monic lifts mod m (a power of p) of the monic factors of f mod p,
    where f = lc(f) * prod(factors) mod p: two-factor Hensel steps down a
    balanced split of the factor list."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, m)
        return [_mod([c * inv for c in f], m)]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for a in factors[:half]:
        g = _mod(_mul_dense(g, a), p)
    for a in factors[half:]:
        h = _mod(_mul_dense(h, a), p)
    s, t = _gcdex_mod(g, h, p)
    k = p
    while k < m:
        k *= k
        g, h, s, t = _hensel_step(f, g, h, s, t, k)
    return _hensel(_mod(g, m), factors[:half], p, m) + _hensel(
        _mod(h, m), factors[half:], p, m
    )


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo the square root of m, with h
    monic, the same identities modulo m (Modern Computer Algebra, Alg. 15.10)."""
    e = _mod(_sub_dense(f, _mul_dense(g, h)), m)
    q, r = _divmod_mod(_mul_dense(s, e), h, m)
    g = _mod(_add_dense(g, _add_dense(_mul_dense(t, e), _mul_dense(q, g))), m)
    h = _mod(_add_dense(h, r), m)
    b = _mod(_sub_dense(_add_dense(_mul_dense(s, g), _mul_dense(t, h)), [1]), m)
    c, d = _divmod_mod(_mul_dense(s, b), h, m)
    s = _mod(_sub_dense(s, d), m)
    t = _mod(_sub_dense(t, _add_dense(_mul_dense(t, b), _mul_dense(c, g))), m)
    return g, h, s, t


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """(d, product of the irreducible factors of degree d) of a monic
    square-free f mod p."""
    out = []
    d, h = 0, [0, 1]
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _mod(_sub_dense(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of a monic f mod p whose irreducible factors
    all have degree d (Cantor-Zassenhaus, odd p)."""
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _mod([rng.randrange(p) for _ in range(len(f) - 1)], p)
        if len(a) < 2:
            continue
        g = _gcd_mod(f, _mod(_sub_dense(_powmod(a, e, f, p), [1]), p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(
                _divmod_mod(f, g, p)[0], d, p, rng
            )


def _mod(a: list[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return _mod([c * inv for c in a], p)


def _add_dense(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b) :]


def _sub_dense(a: list[int], b: list[int]) -> list[int]:
    return _add_dense(a, [-c for c in b])


def _mul_dense(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod_mod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m by b, whose leading coefficient is a
    unit mod m."""
    a = _mod(a, m)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + db] * inv % m
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % m
    return _mod(q, m), _mod(a[:db], m)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod a prime p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic(a, p)


def _gcdex_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 mod a prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub_dense(s0, _mul_dense(q, s1)), p)
        t0, t1 = t1, _mod(_sub_dense(t0, _mul_dense(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo f and p."""
    out, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_dense(out, a), f, p)[1]
        a = _divmod_mod(_mul_dense(a, a), f, p)[1]
        e >>= 1
    return out
