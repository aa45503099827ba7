from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from conftest import M
from lik.expr import LatticeMonomial, LatticePoly
from lik.parser import parse_system
from lik.scaling import (
    ScalingError,
    WeightFamily,
    compute_weights,
    derivative_completion,
    monomials_upto_rank,
    rank_of,
)
from lik.system import DdeSystem


def _uniform(sys: DdeSystem, w) -> bool:
    """Every monomial of equation i has the rank w[i] + 1."""
    return all(
        rank_of(m, w) == w[i] + 1 for i, f in enumerate(sys.rhs) for m in f.monomials()
    )


class TestComputeWeights:
    def test_toda(self, toda):
        w = compute_weights(toda)
        assert w == (Fraction(1), Fraction(2))

    def test_parameters_are_weightless(self, param_toda):
        w = compute_weights(param_toda)
        assert w == (Fraction(1), Fraction(2))

    def test_volterra(self, volterra):
        assert compute_weights(volterra) == (Fraction(1),)

    def test_underdetermined_family(self):
        s = parse_system("u' = u[0]*v[0]\nv' = v[0]*v[1]")
        fam = compute_weights(s)
        assert isinstance(fam, WeightFamily)
        assert fam.free_components == (0,)
        # pinning the free component resolves the family
        pinned = DdeSystem(s.names, s.rhs, weight_pins={0: Fraction(3)})
        w = compute_weights(pinned)
        assert w == (Fraction(3), Fraction(1))

    def test_fractional_weights(self):
        mv = parse_system("u' = u[0]^2*(u[1] - u[-1])")
        w = compute_weights(mv)
        assert w == (Fraction(1, 2),)
        got = monomials_upto_rank(w, Fraction(3, 2))
        assert len(got) == 3  # u, u^2, u^3

    def test_linear_shift_equation_not_dilation_invariant(self):
        # the time derivative adds one unit of weight that nothing balances
        with pytest.raises(ScalingError):
            compute_weights(parse_system("u' = u[1]"))

    def test_every_equation_uniform(self, toda, toda_w):
        assert [toda_w[i] + 1 for i in range(toda.n)] == [Fraction(2), Fraction(3)]
        assert _uniform(toda, toda_w)

    @pytest.mark.parametrize(
        "text",
        [
            "u' = u[0]*(u[1] - u[-1])",
            "u' = u[0]^2*(u[1] - u[-1])",
            "params: a, b\nu' = a*v[-1] - v[0]\nv' = v[0]*(b*u[0] - u[1])",
            "u' = u[0]*(u[1] - u[-1])\nv' = v[0]*(v[1] - v[-1])",
        ],
    )
    def test_accepted_systems_are_uniform(self, text):
        s = parse_system(text)
        w = compute_weights(s)
        assert _uniform(s, w)


@st.composite
def weighted_systems(draw):
    """Systems of 1-3 components, right-hand sides of up to three
    monomials with shifts -1..1, plus optional weight pins (some of them
    non-positive)."""
    n = draw(st.integers(1, 3))
    monomial = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-1, 1), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    )
    rhs = []
    for _ in range(n):
        p = LatticePoly.zero()
        for pairs in draw(st.lists(monomial, max_size=3)):
            m = LatticeMonomial(((c, k), e) for c, k, e in pairs)
            p = p + LatticePoly.from_monomial(m)
        rhs.append(p)
    pins = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.fractions(-2, 3, max_denominator=2),
            max_size=2,
        )
    )
    names = tuple("uvw"[:n])
    return DdeSystem(names, tuple(rhs), weight_pins=pins)


def _rref_outcome(sys):
    """The outcome class of compute_weights, recomputed with sympy's RREF
    of the augmented balance matrix [a | b] (rows a . w = b)."""
    n = sys.n
    rows = []
    for i, f in enumerate(sys.rhs):
        for m in f.monomials():
            a = [0] * n
            for c, _, e in m.triples():
                a[c] += e
            a[i] -= 1
            rows.append(a + [1])
    for i, val in sys.weight_pins.items():
        rows.append([int(c == i) for c in range(n)] + [val])
    if rows:
        rref, pivots = sympy.Matrix(rows).rref()
    else:
        rref, pivots = sympy.zeros(0, n + 1), ()
    if n in pivots:
        return ("inconsistent",)
    particular = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        particular[c] = Fraction(str(rref[k, n]))
    free = tuple(c for c in range(n) if c not in pivots)
    directions = []
    for fc in free:
        d = [Fraction(0)] * n
        d[fc] = Fraction(1)
        for k, c in enumerate(pivots):
            d[c] = -Fraction(str(rref[k, fc]))
        directions.append(tuple(d))
    if free:
        return ("family", tuple(particular), tuple(directions), free)
    if any(v <= 0 for v in particular):
        return ("non-positive",)
    return ("vector", tuple(particular))


class TestComputeWeightsAgainstSympy:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(weighted_systems())
    def test_outcome_matches_rref(self, sys):
        expected = _rref_outcome(sys)
        try:
            w = compute_weights(sys)
        except ScalingError as exc:
            kind = "inconsistent" if "inconsistent" in str(exc) else "non-positive"
            assert (kind,) == expected
            return
        if isinstance(w, WeightFamily):
            got = ("family", w.particular, w.directions, w.free_components)
        else:
            got = ("vector", w)
        assert got == expected


class TestRankOf:
    def test_mixed(self, toda_w):
        assert rank_of(M("u[0]^2*v[0]"), toda_w) == 4

    def test_laurent(self, toda_w):
        assert rank_of(M("v[0]^-1"), toda_w) == -2

    def test_shift_independent(self, toda_w):
        assert rank_of(M("u[3]"), toda_w) == 1


class TestMonomialsUptoRank:
    def test_rank_three(self, toda_w):
        got = monomials_upto_rank(toda_w, Fraction(3))
        assert set(got) == {M("u[0]^3"), M("u[0]^2"), M("u[0]*v[0]"), M("u[0]"), M("v[0]")}

    def test_rank_one(self, toda_w):
        assert monomials_upto_rank(toda_w, Fraction(1)) == (M("u[0]"),)

    def test_rank_two(self, toda_w):
        got = monomials_upto_rank(toda_w, Fraction(2))
        assert set(got) == {M("u[0]^2"), M("u[0]"), M("v[0]")}

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6])
    def test_complete_against_brute_force(self, toda_w, bound):
        got = set(monomials_upto_rank(toda_w, Fraction(bound)))
        brute = set()
        for eu, ev in product(range(bound + 1), repeat=2):
            r = eu * toda_w[0] + ev * toda_w[1]
            if 0 < r <= bound:
                brute.add(
                    LatticeMonomial((((0, 0), eu), ((1, 0), ev)))
                )
        assert got == brute

    def test_weight_vector_iterates_its_weights(self, toda_w):
        assert list(toda_w) == [Fraction(1), Fraction(2)]

    def test_zero_weight_rejected(self):
        w = (Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            monomials_upto_rank(w, Fraction(2))


class TestDerivativeCompletion:
    def test_toda_rank3_canonical(self, toda, toda_w):
        pool = monomials_upto_rank(toda_w, Fraction(3))
        got = derivative_completion(pool, toda_w, Fraction(3), toda)
        assert set(got) == {M("u[0]^3"), M("u[0]*v[-1]"), M("u[0]*v[0]")}

    def test_toda_rank3_spread(self, toda, toda_w):
        pool = monomials_upto_rank(toda_w, Fraction(3))
        got = derivative_completion(
            pool, toda_w, Fraction(3), toda, canonicalize=False
        )
        assert set(got) == {
            M("u[0]^3"),
            M("u[0]*v[-1]"),
            M("u[0]*v[0]"),
            M("u[-1]*v[-1]"),
            M("u[1]*v[0]"),
        }

    def test_exact_rank_passes_through(self, toda, toda_w):
        got = derivative_completion([M("u[0]^3")], toda_w, Fraction(3), toda)
        assert got == (M("u[0]^3"),)

    def test_fractional_deficit_dropped(self, toda, toda_w):
        got = derivative_completion([M("v[0]")], toda_w, Fraction(7, 2), toda)
        assert got == ()

    def test_all_output_has_target_rank(self, toda, toda_w):
        pool = monomials_upto_rank(toda_w, Fraction(5))
        for m in derivative_completion(pool, toda_w, Fraction(5), toda):
            assert rank_of(m, toda_w) == 5
