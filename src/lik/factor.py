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
linear case itself), so most runs never load it.  Its pivot test, exact
division of a pivot by the branch's nonzero conditions, is ring work and
lives in lik.params.

Integer polynomials, univariate ones too, are dicts {exponent tuple: int}
with one exponent per parameter of a fixed name tuple and no zero
coefficients; coefficient lists, lowest degree first, without trailing
zeros, are only residues mod p and p^k.  One recombination step, trial
division by the candidates that subsets of an image's factors decode to,
serves both Zassenhaus and Kronecker.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Iterator

from .params import ParamCoeff

IPoly = dict[tuple[int, ...], int]


def irreducible_factors(pc: ParamCoeff) -> list[ParamCoeff]:
    """The distinct irreducible factors of pc over Q that involve a
    parameter, each with coprime integer coefficients (unique up to sign);
    the rational content and multiplicities are dropped."""
    if pc.is_zero:
        return []
    names = tuple(sorted(pc.parameters()))
    f = _integral(pc, names)
    return [
        ParamCoeff(
            {
                tuple((n, e) for n, e in zip(names, k) if e): Fraction(c)
                for k, c in g.items()
            }
        )
        for g in _factor(f)
    ]


def _integral(pc: ParamCoeff, names: tuple[str, ...]) -> IPoly:
    """pc times the lcm of its denominators, over the given parameters."""
    terms = pc.items()
    den = math.lcm(*(c.denominator for _, c in terms))
    return {tuple(dict(m).get(n, 0) for n in names): int(c * den) for m, c in terms}


def _factor(f: IPoly) -> list[IPoly]:
    """Distinct irreducible factors of positive degree of a nonzero f."""
    n = len(next(iter(f)))
    live = [i for i in range(n) if any(e[i] for e in f)]
    if not live:
        return []
    if len(live) == 1:
        (i,) = live
        image = {(e[i],): c for e, c in f.items()}
        return [
            {(0,) * i + e + (0,) * (n - i - 1): c for e, c in g.items()}
            for g, _ in _univariate_factors(image)
        ]
    # split off the content in each parameter
    for i in live:
        c = _content(f, i)
        if not _is_const(c):
            return _factor(c) + _factor(_divexact(f, c))
    # f is primitive in every parameter, so each of its factors involves
    # live[0], and f / gcd(f, df/dlive[0]) is its square-free part
    f = _divexact(f, _gcd(f, _diff(f, live[0])))
    if any(_degree(f, i) == 1 for i in live) or _irreducible_image(f, live):
        return [f]
    return _kronecker(f)


def _is_const(f: IPoly) -> bool:
    return all(not any(e) for e in f)


def _degree(f: IPoly, i: int) -> int:
    return max((e[i] for e in f), default=0)


def _normal(f: IPoly) -> IPoly:
    """f or -f, whichever has a positive lex-leading coefficient."""
    return {e: -c for e, c in f.items()} if f and f[max(f)] < 0 else f


def _mul(f: IPoly, g: IPoly) -> IPoly:
    out: IPoly = {}
    for a, x in f.items():
        for b, y in g.items():
            e = tuple(i + j for i, j in zip(a, b))
            out[e] = out.get(e, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _sub(f: IPoly, g: IPoly) -> IPoly:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _shift(f: IPoly, i: int, k: int) -> IPoly:
    """f times parameter i to the power k."""
    return {e[:i] + (e[i] + k,) + e[i + 1 :]: c for e, c in f.items()}


def _diff(f: IPoly, i: int) -> IPoly:
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in f.items() if e[i]}


def _coeff(f: IPoly, i: int, k: int) -> IPoly:
    """Coefficient of parameter i to the power k."""
    return {e[:i] + (0,) + e[i + 1 :]: c for e, c in f.items() if e[i] == k}


def _divexact(f: IPoly, g: IPoly) -> IPoly | None:
    """f / g if g divides f in Z[params], else None (division by the
    lex-leading term; a quotient term beyond deg f - deg g in some
    parameter proves that g does not divide f)."""
    lead = max(g)
    room = [_degree(f, i) - _degree(g, i) for i in range(len(lead))]
    r, q = dict(f), {}
    while r:
        m = max(r)
        d = tuple(a - b for a, b in zip(m, lead))
        if any(not 0 <= k <= top for k, top in zip(d, room)) or r[m] % g[lead]:
            return None
        c = q[d] = r[m] // g[lead]
        r = _sub(r, {tuple(a + b for a, b in zip(e, d)): c * x for e, x in g.items()})
    return q


def _gcd(f: IPoly, g: IPoly) -> IPoly:
    """Greatest common divisor in Z[params] with a positive leading
    coefficient: the gcd of the contents in one parameter times that of the
    primitive parts, by a primitive pseudo-remainder sequence."""
    if not f or not g:
        return _normal(f or g)
    n = len(next(iter(f)))
    live = [i for i in range(n) if any(e[i] for e in itertools.chain(f, g))]
    if not live:
        return {(0,) * n: math.gcd(*f.values(), *g.values())}
    i = live[0]
    cf, cg = _content(f, i), _content(g, i)
    f, g = _divexact(f, cf), _divexact(g, cg)
    if _degree(f, i) < _degree(g, i):
        f, g = g, f
    while g and _degree(g, i):
        f, g = g, _primitive(_prem(f, g, i), i)
    h = {(0,) * n: 1} if g else f  # a nonzero g of degree 0 is a unit
    return _normal(_mul(_gcd(cf, cg), h))


def _content(f: IPoly, i: int) -> IPoly:
    """gcd of the coefficients of f as a polynomial in parameter i."""
    c: IPoly = {}
    for k in sorted({e[i] for e in f}):
        c = _gcd(c, _coeff(f, i, k))
        if len(c) == 1 and _is_const(c) and 1 in c.values():
            break
    return c


def _primitive(f: IPoly, i: int) -> IPoly:
    return _divexact(f, _content(f, i)) if f else f


def _prem(f: IPoly, g: IPoly, i: int) -> IPoly:
    """A pseudo-remainder of f by g in parameter i: lc^k*f - q*g of degree
    below deg g, where lc is the leading coefficient of g in i."""
    dg = _degree(g, i)
    lc = _coeff(g, i, dg)
    while f and _degree(f, i) >= dg:
        df = _degree(f, i)
        f = _sub(_mul(lc, f), _mul(_shift(_coeff(f, i, df), i, df - dg), g))
    return f


_POINTS = (2, -3, 5, -2, 3, -5, 7, 4)


def _irreducible_image(f: IPoly, live: list[int]) -> bool:
    """True if some integer point for all parameters but one keeps the
    degree of f in that one and gives an irreducible square-free image.
    Then f, primitive in every parameter, is irreducible too: a splitting
    of f would split the image.  False proves nothing."""
    for i in live:
        others = [j for j in live if j != i]
        for t in range(4):
            point = {j: _POINTS[(t + k) % len(_POINTS)] for k, j in enumerate(others)}
            image: dict[tuple[int], int] = {}
            for e, c in f.items():
                v = c * math.prod(point[j] ** e[j] for j in others)
                image[(e[i],)] = image.get((e[i],), 0) + v
            image = {e: c for e, c in image.items() if c}
            if _degree(image, 0) == _degree(f, i):
                factors = _univariate_factors(image)
                if len(factors) == 1 and factors[0][1] == 1:
                    return True
    return False


def _kronecker(f: IPoly) -> list[IPoly]:
    """Irreducible factors of f, primitive and square-free in every
    parameter, by Kronecker substitution: parameter i becomes t^w_i with
    mixed-radix weights w over the bounds deg_i f + 1, which no factor of f
    exceeds, so a factor's image decodes back to it.  The candidates are
    decoded products of the image's irreducible factors."""
    radix = [_degree(f, i) + 1 for i in range(len(next(iter(f))))]
    weights = [math.prod(radix[:i]) for i in range(len(radix))]
    image = {(sum(a * w for a, w in zip(e, weights)),): c for e, c in f.items()}
    places = list(zip(weights, radix))

    def decode(subset: list[IPoly]) -> IPoly:
        prod = functools.reduce(_mul, subset).items()
        return _normal({tuple(k // w % r for w, r in places): c for (k,), c in prod})

    pieces = [g for g, k in _univariate_factors(image) for _ in range(k)]
    return _recombine(f, pieces, decode)


def _recombine(f: IPoly, pieces: list, candidate) -> list[IPoly]:
    """Irreducible factors of f from the irreducible factors (pieces) of an
    image of f: for subsets of the pieces, smallest first, the candidate
    that the subset decodes to is a factor if it divides f.  A candidate
    whose value at some (k, ..., k), k = 0, 1, -1, 2, does not divide f's
    is skipped without dividing."""
    found: list[IPoly] = []
    size = 1
    while 2 * size <= len(pieces):
        at_f = _at_points(f)
        for subset in itertools.combinations(range(len(pieces)), size):
            g = candidate([pieces[j] for j in subset])
            if any(fk % gk if gk else fk for fk, gk in zip(at_f, _at_points(g))):
                continue
            if (q := _divexact(f, g)) is not None:
                found.append(g)
                f = q
                pieces = [p for j, p in enumerate(pieces) if j not in subset]
                break
        else:
            size += 1
    return found + [_normal(f)]


def _at_points(f: IPoly) -> list[int]:
    """The values of f at (k, ..., k) for k = 0, 1, -1 and 2."""
    return [sum(c * k ** sum(e) for e, c in f.items()) for k in (0, 1, -1, 2)]


# -- univariate factorization over Z ----------------------------------------


def _univariate_factors(f: IPoly) -> list[tuple[IPoly, int]]:
    """Irreducible factors of positive degree of a nonzero f in Z[x], with
    multiplicities: the power of x, then Zassenhaus on each part of the
    square-free decomposition."""
    low = min(e for (e,) in f)
    out = [({(1,): 1}, low)] if low else []
    f = {(e - low,): c for (e,), c in f.items()}
    for g, k in _square_free(f):
        out += [(h, k) for h in _zassenhaus(g)]
    return out


def _square_free(f: IPoly) -> list[tuple[IPoly, int]]:
    """Yun's square-free decomposition of f in Z[x]: pairwise coprime
    primitive g_k of positive degree with f = c * prod g_k^k."""
    df = _diff(f, 0)
    c = _gcd(f, df)
    w, y = _divexact(f, c), _divexact(df, c)
    out, k = [], 1
    while not _is_const(w):
        z = _sub(y, _diff(w, 0))
        g = _gcd(w, z)
        if not _is_const(g):
            out.append((g, k))
        w, y = _divexact(w, g), _divexact(z, g)
        k += 1
    return out


def _odd_primes() -> Iterator[int]:
    for q in itertools.count(3, 2):
        if all(q % r for r in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _zassenhaus(f: IPoly) -> list[IPoly]:
    """Irreducible factors of a primitive square-free f in Z[x] with
    f(0) != 0 and a positive leading coefficient: factor modulo the best of
    up to three primes p that keep f square-free, Hensel-lift past twice
    the Landau-Mignotte bound m, then recombine: a subset's candidate is
    lc(f) times its product in symmetric residues mod m, made primitive."""
    n = _degree(f, 0)
    dense = [f.get((e,), 0) for e in range(n + 1)]
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

    def from_lifted(subset: list[list[int]]) -> IPoly:
        g = [dense[-1]]
        for h in subset:
            g = _mod(_mul_dense(g, h), m)
        g = {(e,): c - m if 2 * c > m else c for e, c in enumerate(g) if c}
        return _normal(_primitive(g, 0))

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
