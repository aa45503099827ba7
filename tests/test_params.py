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
    assert p.content() == Fraction(3, 2)
    q = a * 2 + 4
    assert not q.is_unit_monomial()
    assert q.content() == 2
    assert q.monomial_content() == ()
    r = a * a + a * ParamCoeff.param("b")
    assert r.monomial_content() == (("a", 1),)


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
NAMES = ("a", "b")


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


pmonos = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda es: tuple((n, e) for n, e in zip(NAMES, es) if e)
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
            (Fraction(1, 2) - p, _ref_add({(): Fraction(1, 2)}, {m: -c for m, c in rf.items()})),
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
    @given(raw_coeffs, raw_coeffs, raw_coeffs, st.integers(0, 2))
    def test_substitute_cleared(self, f, num, den, extra):
        p = ParamCoeff(f)
        clear_to = p.degree_in("a") + extra
        rnum, rden = _exact_ref(num), _exact_ref(den)
        want = {}
        for m, c in _exact_ref(f).items():
            d = dict(m)
            k = d.pop("a", 0)
            piece = {tuple(sorted(d.items())): c}
            piece = _ref_mul(piece, _ref_pow(rnum, k))
            piece = _ref_mul(piece, _ref_pow(rden, clear_to - k))
            want = _ref_add(want, piece)
        got = p.substitute_cleared("a", ParamCoeff(num), ParamCoeff(den), clear_to)
        assert _ref(got) == want
        _assert_stored_values(got)

    @RING
    @given(raw_coeffs)
    def test_stored_values_and_fraction_accessors(self, f):
        p = ParamCoeff(f)
        _assert_stored_values(p)
        assert type(p.leading()[1]) is Fraction
        assert type(p.content()) is Fraction
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
    assert ParamCoeff.from_value(3).content() / 2 == Fraction(3, 2)


# -- shared small constants ----------------------------------------------------

from pathlib import Path  # noqa: E402

from lik.cli import main  # noqa: E402
from lik.params import _SMALL  # noqa: E402


def _is_shared(pc) -> bool:
    return any(pc is s for s in _SMALL.values())


def _assert_shared_intact():
    for v, s in _SMALL.items():
        assert s._terms == {(): v} and type(s._terms[()]) is int


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
            ParamCoeff._of({(("a", 1),): 1}),
            ParamCoeff._of({(("a", 1), ("b", 1)): -3}),
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
