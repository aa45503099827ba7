"""Acceptance checklist: one test per criterion, exact arithmetic
throughout.  Run with `pytest tests/test_acceptance.py -v -s` to see one
pass line per criterion.
"""

import random
from fractions import Fraction

import pytest

from conftest import M, P, compose, param_coefficient, variables
from lik.cli import main as cli_main
from lik.conservation import (
    build_density_candidate,
    conservation_residual,
    solve_density,
)
from lik.expr import (
    LatticeMonomial,
    LatticePoly,
    canonical_rep,
    delta_decompose,
    dir_derivative,
    render_poly,
)
from lik.operators import OpEntry
from lik.params import ParamCoeff
from lik.recursion import rank_matrix, solve_recursion
from lik.scaling import compute_weights
from lik.symmetry import (
    build_symmetry_candidate,
    solve_symmetry,
    symmetry_residual,
)

GOLDEN_DENSITIES = {
    1: "u[0]",
    2: "(1/2)*u[0]^2 + v[0]",
    3: "(1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]",
    4: "(1/4)*u[0]^4 + u[0]^2*v[-1] + u[0]^2*v[0] + u[0]*u[1]*v[0] "
    "+ (1/2)*v[0]^2 + v[0]*v[1]",
}

G1 = ("v[0] - v[-1]", "u[1]*v[0] - u[0]*v[0]")
G2 = (
    "u[0]*v[0] + u[1]*v[0] - u[-1]*v[-1] - u[0]*v[-1]",
    "u[1]^2*v[0] - u[0]^2*v[0] + v[0]*v[1] - v[-1]*v[0]",
)


def _passed(n: int, label: str):
    print(f"ACCEPTANCE {n} ({label}): PASS")


@pytest.fixture(scope="module")
def chain(toda, toda_w):
    out = []
    for level in (1, 2, 3):
        ranks = tuple(wi + level for wi in toda_w)
        cand = build_symmetry_candidate(toda, toda_w, ranks)
        results, _ = solve_symmetry(cand, toda, toda_w)
        assert len(results) == 1
        out.append(results[0])
    return out


def test_criterion_1_weights(toda):
    w = compute_weights(toda)
    assert w == (Fraction(1), Fraction(2))
    _passed(1, "weights")


def test_criterion_2_densities(toda, toda_w):
    for rank in (1, 2, 3, 4):
        cand = build_density_candidate(toda, toda_w, Fraction(rank))
        results, _ = solve_density(cand, toda)
        assert len(results) == 1
        r = results[0]
        assert r.density == P(GOLDEN_DENSITIES[rank])
        assert conservation_residual(r.density, r.flux, toda).is_zero
        if rank == 3:
            assert r.flux == P("u[-1]*u[0]*v[-1] + v[-1]^2")
    _passed(2, "densities ranks 1-4")


def test_criterion_3_candidate_fidelity(toda, toda_w, chain):
    dc = build_density_candidate(toda, toda_w, Fraction(3))
    assert dc.unknowns == ("c1", "c2", "c3")
    assert dc.blocks == (M("u[0]^3"), M("u[0]*v[-1]"), M("u[0]*v[0]"))

    sc = build_symmetry_candidate(toda, toda_w, (Fraction(3), Fraction(4)))
    assert len(sc.unknowns) == 17
    assert len(sc.blocks[0]) == 5 and len(sc.blocks[1]) == 12

    from lik.recursion import build_r0

    rm = rank_matrix(chain[0], chain[1])
    r0 = build_r0(toda, toda_w, rm)
    assert len(r0.unknowns) == 16
    structure = []
    for tag, op in zip(r0.unknowns, r0.basis):
        for i, row in enumerate(op.entries):
            for j, e in enumerate(row):
                for a, c in sorted(e.locals.items()):
                    structure.append((tag, i, j, render_poly(c, toda.names), a))
    assert structure == [
        ("c1", 0, 0, "u[0]", 0),
        ("c2", 0, 0, "u[1]", 0),
        ("c3", 0, 1, "1", -1),
        ("c4", 0, 1, "1", 0),
        ("c5", 1, 0, "u[0]^2", 0),
        ("c6", 1, 0, "u[0]*u[1]", 0),
        ("c7", 1, 0, "u[1]^2", 0),
        ("c8", 1, 0, "v[-1]", 0),
        ("c9", 1, 0, "v[0]", 0),
        ("c10", 1, 0, "u[0]^2", 1),
        ("c11", 1, 0, "u[0]*u[1]", 1),
        ("c12", 1, 0, "u[1]^2", 1),
        ("c13", 1, 0, "v[-1]", 1),
        ("c14", 1, 0, "v[0]", 1),
        ("c15", 1, 1, "u[0]", 0),
        ("c16", 1, 1, "u[1]", 0),
    ]
    _passed(3, "candidate structures")


def test_criterion_4_symmetries(toda, toda_w, chain):
    assert chain[0].components == (P(G1[0]), P(G1[1]))
    assert chain[1].components == (P(G2[0]), P(G2[1]))
    for g in chain[:2]:
        assert all(
            x.is_zero for x in symmetry_residual(list(g.components), toda)
        )
    _passed(4, "symmetries G(1), G(2)")


def test_criterion_5_parameter_classification(param_toda, toda_w):
    cand = build_symmetry_candidate(
        param_toda, toda_w, (Fraction(3), Fraction(4))
    )
    results, branches = solve_symmetry(cand, param_toda, toda_w)
    assert len(results) == 1
    assert {c.render() for c in results[0].eq_conditions} == {"a - 1", "b - 1"}
    for br in branches:
        assert br.outcome is not None, br.status
        conds = {c.render() for c in br.eq_conditions}
        if conds == {"a - 1", "b - 1"}:
            assert br.outcome.dimension == 1
        else:
            assert br.outcome.dimension == 0
    _passed(5, "parameter classification a = b = 1")


def test_criterion_6_rank_matrix(chain):
    assert rank_matrix(chain[0], chain[1]) == (
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(1)),
    )
    _passed(6, "rank matrix")


def test_criterion_7_recursion_operator(toda, toda_w, chain):
    out = solve_recursion(toda, toda_w, chain)
    assert out.ok
    expected = {f"c{i}": Fraction(0) for i in range(1, 18)}
    expected.update(
        {t: Fraction(1) for t in ("c1", "c3", "c4", "c9", "c14", "c16")}
    )
    expected["c17"] = Fraction(-1)
    assert out.coefficients == expected

    applied = out.operator.apply(list(chain[0].components))
    assert all(x.is_local for x in applied)
    assert tuple(x.local for x in applied) == chain[1].components

    current = [x.local for x in applied]
    for _level in (3, 4):
        nxt = out.operator.apply(current)
        assert all(x.is_local for x in nxt)
        current = [x.local for x in nxt]
        assert all(x.is_zero for x in symmetry_residual(current, toda))

    from lik.symmetry import frechet_operator

    fp = frechet_operator(toda.rhs)
    residual_op = (
        out.operator.frechet(toda.rhs)
        + out.operator.compose(fp)
        - fp.compose(out.operator)
    )
    for g in chain:
        probes = residual_op.apply(list(g.components))
        assert all(x.is_zero for x in probes)
    _passed(7, "recursion operator")


# -- criterion 8: oracle-based property suites --------------------------------


def _rand_monomial(rng: random.Random, laurent: bool) -> LatticeMonomial:
    pairs = []
    for _ in range(rng.randint(0, 3)):
        comp = rng.randint(0, 1)
        sh = rng.randint(-3, 3)
        exp = rng.choice([-3, -2, -1, 1, 2, 3]) if laurent else rng.randint(1, 3)
        pairs.append(((comp, sh), exp))
    return LatticeMonomial(pairs)


def _rand_poly(rng: random.Random, laurent: bool, max_terms: int = 4) -> LatticePoly:
    acc = LatticePoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            acc = acc + LatticePoly.from_monomial(_rand_monomial(rng, laurent), c)
    return acc


def test_criterion_8a_decomposition_round_trip():
    rng = random.Random(80_801)
    for _ in range(1000):
        p = _rand_poly(rng, laurent=True)
        can, j = delta_decompose(p)
        assert can + j.shifted(1) - j == p
        for m in can.monomials():
            assert canonical_rep(m) == m
        m = _rand_monomial(rng, laurent=True)
        r = rng.randint(-3, 3)
        assert canonical_rep(m.shifted(r)) == canonical_rep(m)
        assert canonical_rep(canonical_rep(m)) == canonical_rep(m)
    _passed(8, "a: decomposition round trip, 1000 random Laurent polynomials")


def test_criterion_8b_frechet_oracle():
    rng = random.Random(80_802)
    eps = ParamCoeff.param("eps")
    for _ in range(200):
        f = [_rand_poly(rng, laurent=False) for _ in range(2)]
        g = [_rand_poly(rng, laurent=False) for _ in range(2)]
        oracle = []
        for fi in f:
            mapping = {
                (comp, shift): LatticePoly.var(comp, shift)
                + g[comp].shifted(shift) * eps
                for comp, shift in variables(fi)
            }
            oracle.append(param_coefficient(compose(fi, mapping), "eps", 1))
        assert [dir_derivative(fi, g) for fi in f] == oracle
    _passed(8, "b: Frechet first-order oracle, 200 random pairs")


def test_criterion_8c_conservation_up_to_rank_6(toda, toda_w, tmp_path):
    for rank in range(1, 7):
        cand = build_density_candidate(toda, toda_w, Fraction(rank))
        results, _ = solve_density(cand, toda)
        assert results, f"no density at rank {rank}"
        for r in results:
            assert conservation_residual(r.density, r.flux, toda).is_zero
        if rank in (5, 6):
            # independent recheck through the certificate checker
            fixture = tmp_path / f"density{rank}.txt"
            fixture.write_text(
                f"rho = {render_poly(results[0].density, toda.names)}\n"
                f"flux = {render_poly(results[0].flux, toda.names)}\n"
            )
            system_file = tmp_path / "toda.dde"
            from conftest import TODA

            system_file.write_text(TODA)
            code = cli_main(
                ["verify", "--density", str(fixture), str(system_file)]
            )
            assert code == 0
    _passed(8, "c: conservation identity for every density up to rank 6")


def _rand_entry(rng: random.Random) -> OpEntry:
    out = OpEntry.zero()
    for _ in range(rng.randint(0, 2)):
        cof = _rand_poly(rng, laurent=False, max_terms=2)
        out = out + OpEntry.local(cof, rng.randint(-2, 2))
    if rng.random() < 0.5:
        left = _rand_poly(rng, laurent=False, max_terms=2)
        right = _rand_poly(rng, laurent=True, max_terms=1)
        if not left.is_zero and not right.is_zero:
            # left * (D-I)^-1 * right * D^power
            power = OpEntry.shift(rng.randint(-1, 1))
            out = out + OpEntry.sandwich(left, right).compose(power)
    return out


def _constant_theta_arg(x) -> bool:
    return LatticeMonomial.constant() in x.thetas


def test_criterion_8d_composition_probe():
    rng = random.Random(80_804)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 4000:
        attempts += 1
        a, b = _rand_entry(rng), _rand_entry(rng)
        g = _rand_poly(rng, laurent=False, max_terms=3)
        try:
            ab = a.compose(b)
            mid = b.apply(g)
            nested = a.apply(mid)
        except ValueError:
            continue  # nonlocal after nonlocal has no normal form here
        got = ab.apply(g)
        if any(map(_constant_theta_arg, (got, mid, nested))):
            continue  # antidifference of a constant: kernel ambiguity
        assert got == nested
        checked += 1
    assert checked >= 200
    _passed(8, f"d: composition/application probe, {checked} random triples")


def test_criterion_9_honest_failure(tmp_path, capsys):
    from conftest import BROKEN_TODA

    f = tmp_path / "broken.dde"
    f.write_text(BROKEN_TODA)
    code = cli_main(["recursion", str(f)])
    out = capsys.readouterr().out
    assert code in (2, 3)
    assert "symmetry-chain" in out
    assert "R[1][1]" not in out  # no fabricated operator
    _passed(9, "honest failure on the broken deformation")
