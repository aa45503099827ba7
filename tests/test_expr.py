from fractions import Fraction

from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import (
    M,
    P,
    PARAM_COEFFS,
    PARAM_TODA,
    TODA,
    UV,
    VOLTERRA,
    dir_derivative_oracle,
    monomials,
    partial,
    polys,
    variables,
)
from lik.expr import (
    LatticeMonomial,
    LatticePoly,
    canonical_offset,
    canonical_rep,
    delta_decompose,
    dir_derivative,
    render_poly,
    term_key,
    total_time_derivative,
)
from lik.params import ParamCoeff
from lik.parser import parse_expression, parse_system
from lik.system import DdeSystem


# -- flat monomials against a dict reference -----------------------------------

# (comp, shift) -> exponent pairs, repeats and zero exponents included, so
# that construction has to merge and drop; shifts reach past any stencil
factor_lists = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(-9, 9)), st.integers(-3, 3)),
    max_size=5,
)


def ref(pairs) -> dict[tuple[int, int], int]:
    """The reference monomial: (comp, shift) -> nonzero exponent."""
    acc: dict[tuple[int, int], int] = {}
    for x, e in pairs:
        acc[x] = acc.get(x, 0) + e
    return {x: e for x, e in acc.items() if e}


def ref_flat(d: dict[tuple[int, int], int]) -> tuple[int, ...]:
    return tuple(v for (c, s), e in sorted(d.items()) for v in (c, s, e))


class TestFlatMonomial:
    @given(factor_lists, st.randoms(use_true_random=False))
    def test_flat_form_hash_and_equality_ignore_the_pair_order(self, pairs, rnd):
        m = LatticeMonomial(pairs)
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        other = LatticeMonomial(shuffled)
        assert m.flat == ref_flat(ref(pairs))
        assert m == other and hash(m) == hash(other)
        assert m.is_constant == (not ref(pairs))

    @given(factor_lists, factor_lists)
    # equal components with interleaved shifts
    @example([((0, -1), 1), ((0, 2), 1)], [((0, 0), 2), ((0, 3), 1)])
    # cancellation in the middle of the merge
    @example([((0, 0), 1), ((0, 1), 2), ((1, 0), 1)], [((0, 1), -2)])
    @example([((0, 0), 1), ((1, 2), -1), ((2, 0), 1)], [((1, -1), 1), ((1, 2), 1)])
    # either side running out first
    @example([((0, 0), 1)], [((0, 1), 1), ((1, 0), 3)])
    @example([((0, 1), 1), ((1, 0), 3)], [((0, 0), 1)])
    @example([((1, 0), 1), ((1, 1), 1)], [((0, 5), 1), ((1, 0), 1)])
    def test_product_merges_and_cancels(self, a, b):
        ma, mb = LatticeMonomial(a), LatticeMonomial(b)
        assert (ma * mb).flat == ref_flat(ref(a + b))
        # a Laurent monomial times its inverse is the constant monomial
        assert ma * ma**-1 == LatticeMonomial.constant()
        assert (ma * ma**-1).flat == ()

    @given(factor_lists, st.integers(-12, 12), st.integers(-3, 3))
    def test_shift_and_power(self, pairs, r, k):
        m, d = LatticeMonomial(pairs), ref(pairs)
        assert m.shifted(r).flat == ref_flat({(c, s + r): e for (c, s), e in d.items()})
        expected = {} if k == 0 else {x: e * k for x, e in d.items()}
        assert (m**k).flat == ref_flat(expected)

    @given(factor_lists)
    def test_canonical_offset_and_rep(self, pairs):
        m, d = LatticeMonomial(pairs), ref(pairs)
        offset = min(d)[1] if d else 0
        assert canonical_offset(m) == offset
        assert canonical_rep(m).flat == ref_flat(
            {(c, s - offset): e for (c, s), e in d.items()}
        )

    @given(factor_lists, factor_lists)
    def test_term_key_order(self, a, b):
        def key(d):
            triples = tuple((c, s, -e) for (c, s), e in sorted(d.items()))
            return (-sum(d.values()), triples)

        ka, kb = term_key(LatticeMonomial(a)), term_key(LatticeMonomial(b))
        assert (ka < kb) == (key(ref(a)) < key(ref(b)))
        assert (ka == kb) == (ref(a) == ref(b))

    @given(factor_lists, st.tuples(st.integers(0, 2), st.integers(-9, 9)))
    def test_exponent_degree_and_partial(self, pairs, x):
        m, d = LatticeMonomial(pairs), ref(pairs)
        assert m.degree() == sum(d.values())
        assert variables(LatticePoly.from_monomial(m)) == sorted(d)
        exponents = {(c, s): e for c, s, e in m.triples()}
        # a variable drawn at random, then each variable of the monomial
        for x in [x, *d]:
            e = d.get(x, 0)
            assert exponents.get(x, 0) == e
            rest = LatticeMonomial._of(ref_flat(ref([*d.items(), (x, -1)])))
            expected = LatticePoly.from_monomial(rest, e) if e else LatticePoly.zero()
            assert partial(LatticePoly.from_monomial(m), *x) == expected


class TestShift:
    def test_single_variable(self):
        assert P("u[0]").shifted(1) == P("u[1]")

    def test_product_shifts_both(self):
        assert P("u[-1]*v[1]").shifted(1) == P("u[0]*v[2]")

    def test_constants_invariant(self):
        assert P("7").shifted(-5) == P("7")

    def test_inverse(self):
        p = P("u[0]^2*v[-2] - 3*v[1]")
        assert p.shifted(3).shifted(-3) == p

    @given(polys(), polys(), st.integers(-3, 3))
    def test_ring_morphism(self, p, q, r):
        assert (p * q).shifted(r) == p.shifted(r) * q.shifted(r)
        assert (p + q).shifted(r) == p.shifted(r) + q.shifted(r)


class TestPartial:
    """The test oracle's partial derivative, which dir_derivative_oracle sums."""

    def test_power_rule(self):
        assert partial(P("u[0]^3"), 0, 0) == P("3*u[0]^2")

    def test_product(self):
        assert partial(P("u[0]*v[-1]"), 1, -1) == P("u[0]")

    def test_laurent_rule(self):
        assert partial(P("1/v[0]"), 1, 0) == -P("v[0]^-2")

    def test_absent_variable(self):
        assert partial(P("u[0]"), 1, 2).is_zero


class TestTotalTimeDerivative:
    def test_u_squared(self, toda):
        got = total_time_derivative(P("u[0]^2"), toda)
        assert got == P("2*u[0]*v[-1] - 2*u[0]*v[0]")

    def test_v(self, toda):
        got = total_time_derivative(P("v[0]"), toda)
        assert got == P("u[0]*v[0] - u[1]*v[0]")

    def test_constant(self, toda):
        assert total_time_derivative(P("5"), toda).is_zero

    @given(p=polys(laurent=False), q=polys(laurent=False))
    def test_derivation(self, toda, p, q):
        dp = total_time_derivative(p, toda)
        dq = total_time_derivative(q, toda)
        assert total_time_derivative(p * q, toda) == dp * q + p * dq

    @given(p=polys(), r=st.integers(-3, 3))
    def test_commutes_with_shift(self, toda, p, r):
        lhs = total_time_derivative(p.shifted(r), toda)
        rhs = total_time_derivative(p, toda).shifted(r)
        assert lhs == rhs


# Dt is memoized per shift-canonical monomial on the system; every call
# must still equal the sum of partials along the right-hand sides.
CACHED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestCachedTimeDerivative:
    @CACHED
    @given(p=polys(max_shift=4))
    def test_toda(self, p):
        sys_ = parse_system(TODA)
        for _ in range(2):  # a cold cache, then a warm one
            assert total_time_derivative(p, sys_) == dir_derivative_oracle(p, sys_.rhs)

    @CACHED
    @given(p=polys(n_comp=1, max_shift=4))
    def test_volterra(self, p):
        sys_ = parse_system(VOLTERRA)
        for _ in range(2):
            assert total_time_derivative(p, sys_) == dir_derivative_oracle(p, sys_.rhs)

    @CACHED
    @given(p=polys(max_shift=4), k=PARAM_COEFFS)
    def test_parameterized_toda(self, p, k):
        sys_ = parse_system(PARAM_TODA)
        p = p * parse_expression(k, UV, sys_.params) + p.shifted(1)
        for _ in range(2):
            assert total_time_derivative(p, sys_) == dir_derivative_oracle(p, sys_.rhs)

    def test_systems_with_equal_names_share_no_entry(self):
        volterra = parse_system(VOLTERRA)
        modified = parse_system("u' = u[0]^2*(u[1] - u[-1])\n")
        replaced = DdeSystem(
            volterra.names, modified.rhs, volterra.params, volterra.weight_pins
        )
        p = P("u[0]*u[1] + u[-2]")
        first = total_time_derivative(p, volterra)
        assert first == dir_derivative_oracle(p, volterra.rhs)
        for other in (modified, replaced):
            got = total_time_derivative(p, other)
            assert got == dir_derivative_oracle(p, modified.rhs)
            assert got != first
        assert total_time_derivative(p, volterra) == first

    def test_cache_leaves_equality_hash_and_repr_alone(self):
        warm, cold = parse_system(TODA), parse_system(TODA)
        before = repr(warm)
        total_time_derivative(P("u[0]^2*v[3] + v[-1]"), warm)
        assert warm == cold
        assert repr(warm) == before == repr(cold)
        assert warm != parse_system(PARAM_TODA)

    def test_weight_pins_leave_equality_and_hash_alone(self):
        plain = parse_system(TODA)
        pinned = DdeSystem(plain.names, plain.rhs, plain.params, {0: Fraction(3)})
        assert plain == pinned
        assert "weight_pins={0: Fraction(3, 1)}" in repr(pinned)
        assert "dt_cache" not in repr(pinned)


class TestDirDerivative:
    @CACHED
    @given(
        p=polys(max_shift=4),
        kp=PARAM_COEFFS,
        directions=st.lists(
            st.tuples(polys(max_shift=2), PARAM_COEFFS, st.integers(-3, 3)),
            min_size=2,
            max_size=2,
        ),
    )
    def test_matches_the_sum_of_partials(self, p, kp, directions):
        # Laurent monomials, parametric coefficients and shifted directions
        p = p * P(kp, ("a", "b")) + p.shifted(1)
        g = [(q * P(k, ("a", "b"))).shifted(r) for q, k, r in directions]
        assert dir_derivative(p, g) == dir_derivative_oracle(p, g)

    @given(m=monomials(max_shift=4))
    def test_time_derivative_of_a_lone_canonical_monomial(self, m):
        m = canonical_rep(m)
        p = LatticePoly.from_monomial(m)
        sys_ = parse_system(TODA)
        cold = total_time_derivative(p, sys_)
        warm = total_time_derivative(p, sys_)
        assert cold == dir_derivative_oracle(p, sys_.rhs)
        assert warm is cold  # the cached polynomial itself, not a copy
        # a scaled or shifted monomial is derived from the same entry
        assert total_time_derivative(p * 3, sys_) == cold * 3
        assert total_time_derivative(p.shifted(2), sys_) == cold.shifted(2)
        assert total_time_derivative(p, sys_) == cold


class TestCanonicalRep:
    def test_single_component(self):
        assert canonical_rep(M("u[-2]*u[0]")) == M("u[0]*u[2]")

    def test_lowest_component_pinned(self):
        assert canonical_rep(M("u[2]*v[0]")) == M("u[0]*v[-2]")

    def test_already_canonical(self):
        assert canonical_rep(M("u[0]")) == M("u[0]")

    def test_component_without_lowest(self):
        assert canonical_rep(M("v[-1]^2")) == M("v[0]^2")

    @given(monomials(max_vars=3), st.integers(-3, 3))
    def test_shift_invariant_and_idempotent(self, m, r):
        rep = canonical_rep(m)
        assert canonical_rep(m.shifted(r)) == rep
        assert canonical_rep(rep) == rep


class TestDeltaDecompose:
    def test_downshifted_product(self):
        can, j = delta_decompose(P("u[-1]*v[1]"))
        assert can == P("u[0]*v[2]")
        assert j == -P("u[-1]*v[1]")

    def test_exact_difference(self):
        can, j = delta_decompose(P("u[1]*v[1] - u[0]*v[0]"))
        assert can.is_zero
        assert j == P("u[0]*v[0]")

    def test_published_density_flow(self, toda):
        # time derivative of the rank-3 candidate with tagged coefficients
        cand = P("c1*u[0]^3 + c2*u[0]*v[-1] + c3*u[0]*v[0]", params=("c1", "c2", "c3"))
        e = total_time_derivative(cand, toda)
        can, j = delta_decompose(e)
        c1, c2, c3 = (ParamCoeff.param(t) for t in ("c1", "c2", "c3"))
        assert can.coeff(M("u[0]^2*v[-1]")) == c1 * 3 - c2
        assert can.coeff(M("u[0]^2*v[0]")) == c3 - c1 * 3
        assert can.coeff(M("v[0]*v[1]")) == c3 - c2
        assert can.coeff(M("u[0]*u[1]*v[0]")) == c2 - c3
        assert can.coeff(M("v[0]^2")) == c2 - c3
        # telescoping part reproduces the flux up to overall sign
        expected = P(
            "c3*v[-1]*v[0] - c2*v[-1]*v[0] + c2*u[-1]*u[0]*v[-1] + c2*v[-1]^2",
            params=("c1", "c2", "c3"),
        )
        assert -j == expected

    def test_constants_stay_canonical(self):
        can, j = delta_decompose(P("4"))
        assert can == P("4")
        assert j.is_zero

    @settings(max_examples=300)
    @given(polys(max_vars=3))
    def test_round_trip(self, p):
        can, j = delta_decompose(p)
        assert can + j.shifted(1) - j == p
        for m in can.monomials():
            assert canonical_rep(m) == m

    @given(polys(max_vars=3))
    def test_linear(self, p):
        can, j = delta_decompose(p * 3)
        can1, j1 = delta_decompose(p)
        assert can == can1 * 3 and j == j1 * 3


class TestAntidifference:
    """delta_decompose inverts the forward difference: p = (D - I) J
    exactly when its canonical part vanishes."""

    def test_simple(self):
        assert delta_decompose(P("u[1] - u[0]")) == (LatticePoly.zero(), P("u[0]"))

    def test_cancelling_laurent_factor(self):
        p = P("(1/v[0]) * v[0] * (u[1] - u[0])")
        assert p == P("u[1] - u[0]")
        assert delta_decompose(p) == (LatticePoly.zero(), P("u[0]"))

    def test_not_exact(self):
        canonical, j = delta_decompose(P("u[0]"))
        assert canonical == P("u[0]")
        assert j.is_zero

    @given(polys(max_vars=3))
    def test_correct_when_exact(self, p):
        canonical, j = delta_decompose(p)
        if canonical.is_zero:
            assert j.shifted(1) - j == p


class TestRendering:
    def test_example_form(self):
        p = P("(1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]")
        assert render_poly(p, UV) == "(1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]"

    def test_signs_and_integers(self):
        assert render_poly(P("-u[0] + 2*v[1] - 7"), UV) == "-u[0] + 2*v[1] - 7"

    def test_zero(self):
        assert render_poly(LatticePoly.zero(), UV) == "0"

    def test_parametric_coefficients(self):
        p = P("(a*b - 1)*u[0] + a*v[0]", params=("a", "b"))
        text = render_poly(p, UV)
        assert P(text, params=("a", "b")) == p

    @given(polys(max_vars=3))
    def test_round_trip(self, p):
        assert P(render_poly(p, UV)) == p

    @CACHED
    @given(p=polys(max_vars=3), kp=PARAM_COEFFS, q=polys(max_vars=3), kq=PARAM_COEFFS)
    def test_parametric_round_trip(self, p, kp, q, kq):
        # parametric coefficients nested in rendered polynomials, next to
        # rational ones when a factor is "1"
        ab = ("a", "b")
        r = p * P(kp, params=ab) + q * P(kq, params=ab)
        assert P(render_poly(r, UV), params=ab) == r
