from fractions import Fraction

import pytest

from lik.params import ParamCoeff


def test_rational_arithmetic():
    a = ParamCoeff.from_value(Fraction(1, 3))
    b = ParamCoeff.from_value(2)
    assert (a + b).as_fraction() == Fraction(7, 3)
    assert (a * b).as_fraction() == Fraction(2, 3)
    assert (-a).as_fraction() == Fraction(-1, 3)
    assert (a - a).is_zero


def test_parameter_polynomials():
    a = ParamCoeff.param("a")
    b = ParamCoeff.param("b")
    p = (a + 1) * (b - 1)
    assert p == a * b - a + b - 1
    assert p.parameters() == {"a", "b"}
    assert p.degree_in("a") == 1
    assert not p.is_rational
    with pytest.raises(ValueError):
        p.as_fraction()


def test_coeff_of():
    a = ParamCoeff.param("a")
    b = ParamCoeff.param("b")
    p = a**2 * b + a * 3 - b + 2
    assert p.coeff_of("a", 2) == b
    assert p.coeff_of("a", 1) == ParamCoeff.from_value(3)
    assert p.coeff_of("a", 0) == -b + 2


def test_substitute_cleared():
    # p := -h/g cleared by g^degree keeps everything polynomial
    a = ParamCoeff.param("a")
    b = ParamCoeff.param("b")
    p = a * b - 1  # a := 1/b makes this vanish
    q = p.substitute_cleared("a", ParamCoeff.one(), b, 1)
    assert q.is_zero


def test_unit_monomials_and_content():
    a = ParamCoeff.param("a")
    p = a * a * Fraction(3, 2)
    assert p.is_unit_monomial()
    q = a * 2 + 4
    assert not q.is_unit_monomial()


def test_render_deterministic():
    a = ParamCoeff.param("a")
    b = ParamCoeff.param("b")
    assert (a * b - 1).render() == "a*b - 1"
    assert (b - a).render() == "-a + b"
    assert (a * Fraction(1, 2)).render() == "(1/2)*a"
    assert ParamCoeff.zero().render() == "0"


# -- the ring against a plain dict[PMono, Fraction] reference ----------------

import hypothesis.strategies as st  # noqa: E402
from hypothesis import given, settings  # noqa: E402

RING = settings(derandomize=True, database=None, deadline=None, max_examples=200)
# a0 sorts between a and b but is registered after both, so a field order
# that leaked into a result would show
NAMES = ("a", "b", "a0")


def _ref_mono_mul(m, n):
    acc = dict(m)
    for name, e in n:
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted(acc.items()))


def _ref_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(f, g):
    out = {}
    for m, c in f.items():
        for n, d in g.items():
            k = _ref_mono_mul(m, n)
            out[k] = out.get(k, Fraction(0)) + c * d
    return {m: c for m, c in out.items() if c}


def _ref_pow(f, k):
    out = {(): Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, f)
    return out


def _ref(pc):
    return {m: Fraction(c) for m, c in pc.items()}


def _ref_key(m):
    # total degree descending, then lexicographic by (name, exponent desc)
    return (-sum(e for _, e in m), tuple((n, -e) for n, e in m))


def _ref_coeff_of(f, name, power):
    out = {}
    for m, c in f.items():
        d = dict(m)
        if d.pop(name, 0) == power:
            out[tuple(sorted(d.items()))] = c
    return out


def _ref_derivative(f, name):
    out = {}
    for m, c in f.items():
        d = dict(m)
        if k := d.get(name, 0):
            d[name] = k - 1
            out[tuple(sorted((n, e) for n, e in d.items() if e))] = c * k
    return out


pmonos = st.tuples(*[st.integers(0, 2)] * len(NAMES)).map(
    lambda es: tuple(sorted((n, e) for n, e in zip(NAMES, es) if e))
)
# int, integral Fraction and true fraction values, so both spellings of an
# integer reach every operation
values = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(-4, 4).map(Fraction),
)
raw_coeffs = st.dictionaries(pmonos, values, max_size=4)
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def _exact_ref(raw):
    return {m: Fraction(c) for m, c in raw.items() if c}


def _assert_stored_values(pc):
    for _, c in pc.items():
        assert type(c) in (int, Fraction), type(c)
        assert not isinstance(c, bool)
        assert type(c) is int or c.denominator != 1, c
        assert c != 0


class TestRingAgainstReference:
    @RING
    @given(raw_coeffs, raw_coeffs)
    def test_add_sub_neg(self, f, g):
        p, q = ParamCoeff(f), ParamCoeff(g)
        rf, rg = _exact_ref(f), _exact_ref(g)
        neg_g = {m: -c for m, c in rg.items()}
        for got, want in (
            (p + q, _ref_add(rf, rg)),
            (p - q, _ref_add(rf, neg_g)),
            (-q, neg_g),
            (p + 0, rf),
            (2 + p, _ref_add(rf, {(): Fraction(2)})),
            (Fraction(1, 2) + -p, _ref_add({(): Fraction(1, 2)}, {m: -c for m, c in rf.items()})),
        ):
            assert _ref(got) == want
            _assert_stored_values(got)

    @RING
    @given(raw_coeffs, raw_coeffs, scalars, st.integers(0, 3))
    def test_mul_pow_scale(self, f, g, k, e):
        p, q = ParamCoeff(f), ParamCoeff(g)
        rf, rg = _exact_ref(f), _exact_ref(g)
        scaled = {m: c * k for m, c in rf.items() if c * k}
        for got, want in (
            (p * q, _ref_mul(rf, rg)),
            (p * k, scaled),
            (k * p, scaled),
            (p.scale(k), scaled),
            (p**e, _ref_pow(rf, e)),
        ):
            assert _ref(got) == want
            _assert_stored_values(got)

    @RING
    @given(raw_coeffs, raw_coeffs, raw_coeffs, st.integers(0, 2), st.sampled_from(NAMES))
    def test_substitute_cleared(self, f, num, den, extra, name):
        p = ParamCoeff(f)
        clear_to = p.degree_in(name) + extra
        rnum, rden = _exact_ref(num), _exact_ref(den)
        want = {}
        for m, c in _exact_ref(f).items():
            d = dict(m)
            k = d.pop(name, 0)
            piece = {tuple(sorted(d.items())): c}
            piece = _ref_mul(piece, _ref_pow(rnum, k))
            piece = _ref_mul(piece, _ref_pow(rden, clear_to - k))
            want = _ref_add(want, piece)
        got = p.substitute_cleared(name, ParamCoeff(num), ParamCoeff(den), clear_to)
        assert _ref(got) == want
        _assert_stored_values(got)

    @RING
    @given(raw_coeffs, st.sampled_from(NAMES), st.integers(0, 3))
    def test_structure_and_order(self, f, name, power):
        p, rf = ParamCoeff(f), _exact_ref(f)
        assert [m for m, _ in p.items()] == sorted(rf, key=_ref_key)
        assert _ref(p) == rf
        assert p.degree_in(name) == max((dict(m).get(name, 0) for m in rf), default=0)
        got = p.coeff_of(name, power)
        assert _ref(got) == _ref_coeff_of(rf, name, power)
        _assert_stored_values(got)
        got = p.derivative(name)
        assert _ref(got) == _ref_derivative(rf, name)
        _assert_stored_values(got)
        assert p.parameters() == {n for m in rf for n, _ in m}
        if rf:
            lead = min(rf, key=_ref_key)
            assert p.leading() == (lead, rf[lead])
            assert p.total_degree() == -_ref_key(lead)[0]

    @RING
    @given(raw_coeffs)
    def test_stored_values_and_fraction_accessors(self, f):
        p = ParamCoeff(f)
        _assert_stored_values(p)
        assert type(p.leading()[1]) is Fraction
        if p.is_rational:
            assert type(p.as_fraction()) is Fraction

    @RING
    @given(raw_coeffs)
    def test_int_and_fraction_spellings_agree(self, f):
        as_int = {
            m: int(c) if Fraction(c).denominator == 1 else c for m, c in f.items()
        }
        as_frac = {m: Fraction(c) for m, c in f.items()}
        p, q = ParamCoeff(as_int), ParamCoeff(as_frac)
        assert p == q
        assert hash(p) == hash(q)
        assert p.render() == q.render()
        assert p.items() == q.items()


def test_constructors_store_exact_values():
    for pc in (
        ParamCoeff.one(),
        ParamCoeff.from_value(3),
        ParamCoeff.from_value(Fraction(6, 2)),
        ParamCoeff.from_value(True),
        ParamCoeff.param("a"),
        ParamCoeff({(): Fraction(4, 2), (("a", 1),): True}),
    ):
        _assert_stored_values(pc)
    assert ParamCoeff.from_value(Fraction(6, 2)) == 3
    assert ParamCoeff.from_value(3) == Fraction(3)
    assert hash(ParamCoeff.from_value(3)) == hash(ParamCoeff.from_value(Fraction(3)))
    # dividing two accessors is exact division, never float division
    assert ParamCoeff.from_value(1).as_fraction() / ParamCoeff.from_value(3).as_fraction() == Fraction(1, 3)
    assert ParamCoeff.from_value(3).leading()[1] / 2 == Fraction(3, 2)


# -- shared small constants ----------------------------------------------------

from pathlib import Path  # noqa: E402

from lik.cli import main  # noqa: E402
from lik.params import _SMALL, _pack  # noqa: E402


def _is_shared(pc) -> bool:
    return any(pc is s for s in _SMALL.values())


def _assert_shared_intact():
    # 0 is the packed key of the constant monomial
    for v, s in _SMALL.items():
        assert s._terms == {0: v} and type(s._terms[0]) is int


class TestSharedConstants:
    @RING
    @given(raw_coeffs, raw_coeffs, scalars)
    def test_results_equal_fresh_coefficients(self, f, g, k):
        p, q = ParamCoeff(f), ParamCoeff(g)
        rf, rg = _exact_ref(f), _exact_ref(g)
        for got, want in (
            (p + q, _ref_add(rf, rg)),
            (p - q, _ref_add(rf, {m: -c for m, c in rg.items()})),
            (p * q, _ref_mul(rf, rg)),
            (p.scale(k), {m: c * k for m, c in rf.items() if c * k}),
        ):
            fresh = ParamCoeff(want)
            assert got == fresh and hash(got) == hash(fresh)
            assert got.items() == fresh.items() and got.render() == fresh.render()
        _assert_shared_intact()

    def test_parametric_and_zero_are_never_shared(self):
        a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
        for pc in (
            a,
            -3 * a * b,
            a * 2 - a,
            ParamCoeff._of({_pack((("a", 1),)): 1}),
            ParamCoeff._of({_pack((("a", 1), ("b", 1))): -3}),
            ParamCoeff.zero(),
            ParamCoeff.from_value(0),
            a - a,
            ParamCoeff.one() - 1,
            a * 0,
        ):
            assert not _is_shared(pc), pc
        # constants are shared only inside [-64, 64]
        assert _is_shared(ParamCoeff.from_value(-64))
        assert _is_shared(ParamCoeff.from_value(8) * ParamCoeff.from_value(8))
        assert not _is_shared(ParamCoeff.from_value(65))
        assert not _is_shared(ParamCoeff.from_value(Fraction(1, 2)))

    def test_shared_instances_intact_after_a_recursion_run(self, capsys):
        toda = Path(__file__).resolve().parent.parent / "systems" / "toda.dde"
        code = main(["recursion", str(toda)])
        capsys.readouterr()
        _assert_shared_intact()
        assert code == 0


# -- the packed form: exponent limit and field order ---------------------------

import subprocess  # noqa: E402
import sys  # noqa: E402

from lik.params import MAX_EXPONENT, ExponentOverflow  # noqa: E402


class TestExponentLimit:
    def test_largest_exponent_fits(self):
        a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
        top = ParamCoeff({(("a", MAX_EXPONENT),): 1})
        assert top.degree_in("a") == MAX_EXPONENT == 2**31 - 1
        assert top == ParamCoeff({(("a", MAX_EXPONENT - 1),): 1}) * a
        assert (top * b).items() == [((("a", MAX_EXPONENT), ("b", 1)), 1)]
        assert top.render() == f"a^{MAX_EXPONENT}"

    def test_first_exponent_past_the_limit(self):
        a = ParamCoeff.param("a")
        top = ParamCoeff({(("a", MAX_EXPONENT),): 1})
        with pytest.raises(ExponentOverflow, match=r"outside 0\.\.2147483647"):
            ParamCoeff({(("a", MAX_EXPONENT + 1),): 1})
        with pytest.raises(ExponentOverflow):
            top * a
        with pytest.raises(ExponentOverflow):
            (a + 1) * (top + 1)  # only one product term overflows
        with pytest.raises(ExponentOverflow):
            ParamCoeff({(("a", 2**30),): 1}) ** 2
        with pytest.raises(ExponentOverflow):
            ParamCoeff({(("a", -1),): 1})


# names registered in the given order in a fresh process, then every
# boundary accessor on the same coefficients
_REGISTRY_SCRIPT = """
import sys
from lik.params import ParamCoeff, _SHIFT
for name in sys.argv[1:]:
    ParamCoeff.param(name)
assert list(_SHIFT) == sys.argv[1:], _SHIFT
a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
for p in (a*b - 1, b**2*a + a**2*b + 3*b**3 - a, (a + b)**3, b - a, a**2*b*(b - 2*a)):
    print(p.render(), p.items(), p.leading(),
          sorted(p.parameters()), p.degree_in("a"), p.coeff_of("b", 1).render(),
          p.total_degree(), sorted(q.render() for q in (p, -p, p*p)))
print(ParamCoeff({(("a", 1), ("b", 1)): 1}) == a*b, (b - a).render())
"""


def test_results_do_not_depend_on_the_field_order():
    def run(*names):
        done = subprocess.run(
            [sys.executable, "-c", _REGISTRY_SCRIPT, *names],
            capture_output=True, text=True, check=True,
        )
        return done.stdout

    name_order = run("a", "b")
    assert run("b", "a") == name_order
    assert name_order.splitlines()[-1] == "True -a + b"


# -- exact division on packed keys: the pivot test ------------------------------

import math  # noqa: E402

from lik.linalg import _factor_irreducible, _normalize_factor  # noqa: E402
from lik.params import _SHIFT, _divexact, divexact, divides_into_unit  # noqa: E402


def _ref_integral(pc, names):
    terms = pc.items()
    den = math.lcm(*(c.denominator for _, c in terms))
    return {tuple(dict(m).get(n, 0) for n in names): int(c * den) for m, c in terms}


def _ref_divexact(f, g):
    lead = max(g)
    room = [max(e[i] for e in f) - max(e[i] for e in g) for i in range(len(lead))]
    r, q = dict(f), {}
    while r:
        m = max(r)
        d = tuple(x - y for x, y in zip(m, lead))
        if any(not 0 <= k <= top for k, top in zip(d, room)) or r[m] % g[lead]:
            return None
        c = q[d] = r[m] // g[lead]
        for e, x in g.items():
            e = tuple(i + j for i, j in zip(e, d))
            v = r.get(e, 0) - c * x
            if v:
                r[e] = v
            else:
                del r[e]
    return q


def _reference_divides_into_unit(pc, factors):
    """The pivot test on exponent tuples over pc's parameters, divided by
    the lex-leading term with a degree bound on each quotient term."""
    names = tuple(sorted(pc.parameters()))
    f = _ref_integral(pc, names)
    for g in factors:
        if g.parameters() <= set(names):
            g = _ref_integral(g, names)
            while (q := _ref_divexact(f, g)) is not None:
                f = q
    return all(not any(e) for e in f)


def small_polys(names):
    exponents = st.tuples(*[st.integers(0, 2)] * len(names)).filter(
        lambda e: sum(e) <= 2
    )
    return st.dictionaries(
        exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    ).map(
        lambda terms: ParamCoeff({
            tuple((n, k) for n, k in zip(names, e) if k): c for e, c in terms.items()
        })
    )


@st.composite
def pivot_tests(draw):
    """(pivot, conditions) as the solver sees them: a product of normalized
    irreducible factors, some repeated, times a sign and a unit monomial, or
    such a product plus a small polynomial, normalized; conditions drawn
    from the same pool and from one unrelated polynomial."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    pool = []
    for p in draw(st.lists(small_polys(names), min_size=1, max_size=3)):
        pool.extend(f for f in _factor_irreducible(p) if f not in pool)
    if not pool:
        pool = [ParamCoeff.param(names[0]) - 1]
    pc = ParamCoeff.from_value(draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)])))
    for n in names:
        pc = pc * ParamCoeff.param(n) ** draw(st.integers(0, 2))
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    for f in picked:
        pc = pc * f
    if draw(st.integers(0, 9)) < 4:
        pc = pc + draw(small_polys(names))
    # most of the product's factors, some others
    conds = [
        f for f in pool
        if (f in picked or draw(st.booleans())) and draw(st.integers(0, 3))
    ]
    conds += _factor_irreducible(draw(small_polys(names)))[:1]
    return _normalize_factor(pc), tuple(conds)


class TestDividesIntoUnit:
    @RING
    @given(pivot_tests())
    def test_matches_the_reference(self, case):
        pc, conds = case
        if pc.is_zero or pc.is_rational or pc.is_unit_monomial():
            return  # decided before the division test
        assert divides_into_unit(pc, conds) == _reference_divides_into_unit(pc, conds)

    @RING
    @given(small_polys(NAMES), small_polys(NAMES), small_polys(NAMES))
    def test_divexact_returns_the_quotient(self, f, g, h):
        assert divexact(f * g, g) == f
        r = f * g + h
        if r.is_zero:
            return
        q = divexact(r, g)
        names = sorted(r.parameters() | g.parameters())
        want = _ref_divexact(_ref_integral(r, names), _ref_integral(g, names))
        assert (q is None) == (want is None)
        if q is not None:
            assert q * g == r

    def test_borrow_from_a_higher_field(self):
        # the divisor's leading term has the larger exponent in the lower
        # field, so the key difference borrows into the guard bit; read as
        # a monomial it would be the Laurent hi^2/lo, an exact "quotient"
        lo, hi = ParamCoeff.param("a"), ParamCoeff.param("b")
        if _SHIFT["a"] > _SHIFT["b"]:
            lo, hi = hi, lo
        assert _divexact((hi**2 * (lo + hi))._terms, (lo * (lo + hi))._terms) is None
        f, g = lo * hi**2 + 1, lo**2 + hi
        assert _divexact(f._terms, g._terms) is None
        assert not divides_into_unit(f, [g])
        assert divides_into_unit(f * g, [g, f])

    def test_exponents_at_the_limit(self):
        a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
        top = ParamCoeff({(("a", MAX_EXPONENT),): 1})
        g = top - b  # linear in b: irreducible
        pc = g * (b - 1)
        assert divides_into_unit(pc, [g, b - 1])
        assert not divides_into_unit(pc, [g]) and not divides_into_unit(pc, [b - 1])
        assert not divides_into_unit(top * b + 1, [g])
        # a remainder term goes past the limit: a^(MAX + 1) from a * a^MAX
        assert not divides_into_unit(top * b**3 + 1, [b**3 + a])
        for pc, conds in (
            (pc, [g, b - 1]), (top * b + 1, [g]), (top * b**3 + 1, [b**3 + a]),
        ):
            want = _reference_divides_into_unit(pc, conds)
            assert divides_into_unit(pc, conds) == want


# the same pivot tests with the fields in the order given, in a fresh process
_DIVISION_SCRIPT = """
import sys
from lik.params import MAX_EXPONENT, ParamCoeff, _SHIFT, divides_into_unit
for name in sys.argv[1:]:
    ParamCoeff.param(name)
assert list(_SHIFT) == sys.argv[1:], _SHIFT
a, b = ParamCoeff.param("a"), ParamCoeff.param("b")
top = ParamCoeff({(("a", MAX_EXPONENT),): 1})
for pc, conds in (
    (a*b**2 + 1, [a**2 + b]), (b*a**2 + 1, [b**2 + a]),
    ((a*b**2 + 1) * (a**2 + b), [a**2 + b, a*b**2 + 1]),
    ((a - b)**2 * (a*b - 1), [a - b, a*b - 1]), ((a - b) * (a + b), [a - b]),
    ((top - b) * (b - 1), [top - b, b - 1]), (top*b**3 + 1, [b**3 + a]),
):
    print(divides_into_unit(pc, conds))
"""


def test_division_does_not_depend_on_the_field_order():
    def run(*names):
        done = subprocess.run(
            [sys.executable, "-c", _DIVISION_SCRIPT, *names],
            capture_output=True, text=True, check=True,
        )
        return done.stdout.split()

    name_order = run("a", "b")
    assert run("b", "a") == name_order
    assert name_order == ["False", "False", "True", "True", "False", "True", "False"]
