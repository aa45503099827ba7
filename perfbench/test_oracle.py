"""Tests of the independent oracle: it accepts correct reports and rejects
perturbed ones.  Run with ``python3 -m pytest perfbench`` from the root."""

import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

ROOT = HERE.parent
TODA = "u' = v[-1] - v[0]\nv' = v[0]*(u[0] - u[1])\n"
PARAM_TODA = "params: a, b\nu' = a*v[-1] - v[0]\nv' = v[0]*(b*u[0] - u[1])\n"
MOD_VOLTERRA = (HERE / "systems" / "modified_volterra.dde").read_text()

G1 = {"u": "-v[-1] + v[0]", "v": "-u[0]*v[0] + u[1]*v[0]"}
G2 = {"u": "-u[-1]*v[-1] - u[0]*v[-1] + u[0]*v[0] + u[1]*v[0]",
      "v": "-u[0]^2*v[0] + u[1]^2*v[0] - v[-1]*v[0] + v[0]*v[1]"}
TODA_R = [
    "R[1][1] = u[0]*I",
    "R[1][2] = D^-1 + I + (-v[-1] + v[0])*S*v[0]^-1",
    "R[2][1] = v[0]*I + v[0]*D",
    "R[2][2] = u[1]*I + (-u[0]*v[0] + u[1]*v[0])*S*v[0]^-1",
]


def lattice(text):
    return oracle.Lattice(*oracle.read_system(text))


def report(text, **parts):
    rhs, params = oracle.read_system(text)
    doc = {
        "schema_version": "1",
        "command": "densities",
        "system": {"components": [{"name": n, "rhs": rhs[n]} for n in sorted(rhs)],
                   "params": params},
        "weights": {"u": "1", "v": "2"} if len(rhs) == 2 else {"u": "1/2"},
        "densities": [], "symmetries": [], "recursion_operator": None,
        "conditions": [], "verification": [],
    }
    doc.update(parts)
    return doc


def density(rank, rho, flux, conditions=()):
    return {"rank": str(rank), "rho": rho, "flux": flux, "flux_decomposition": flux,
            "normalization": "leading coefficient set to 1",
            "conditions": list(conditions)}


def symmetry(ranks, comps, conditions=()):
    return {"ranks": [str(r) for r in ranks], "components": dict(comps),
            "conditions": list(conditions)}


def operator(entries):
    return {"entries": list(entries), "coefficients": {}, "verified": True,
            "checks": [], "failure_family": None, "message": ""}


@pytest.fixture(scope="module")
def schema():
    return oracle.load_schema(ROOT)


def check(text, doc, schema):
    return oracle.check_report(lattice(text), doc, schema)


def test_antidifference_inverts_the_forward_difference():
    lat = lattice(TODA)
    h = lat.expr("u[-1]*u[0]*v[-1] + v[-1]^2 + u[2]*v[0]^-1")
    assert sympy.expand(lat.antidifference(lat.shift(h, 1) - h) - h) == 0
    assert lat.antidifference(lat.expr("u[0]*v[0]")) is None


def test_toda_density_passes_and_perturbed_flux_fails(schema):
    good = density(3, "(1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]",
                   "u[-1]*u[0]*v[-1] + v[-1]^2")
    assert check(TODA, report(TODA, densities=[good]), schema) == []
    bad = dict(good, flux="u[-1]*u[0]*v[-1] + 2*v[-1]^2")
    problems = check(TODA, report(TODA, densities=[bad]), schema)
    assert any("Dt(rho)" in p for p in problems)


def test_trivial_and_misranked_densities_fail(schema):
    trivial = density(2, "u[1]*u[0] - u[0]*u[-1]", "-u[0]*u[-1]")
    problems = check(TODA, report(TODA, densities=[trivial]), schema)
    assert any("total difference" in p for p in problems)
    misranked = density(2, "u[0]", "v[-1]")
    problems = check(TODA, report(TODA, densities=[misranked]), schema)
    assert any("not of rank 2" in p for p in problems)


def test_toda_symmetry_passes_and_perturbed_component_fails(schema):
    doc = report(TODA, symmetries=[symmetry((3, 4), G2)])
    assert check(TODA, doc, schema) == []
    bad = dict(G2, v="-u[0]^2*v[0] + u[1]^2*v[0] - v[-1]*v[0] + 2*v[0]*v[1]")
    problems = check(TODA, report(TODA, symmetries=[symmetry((3, 4), bad)]), schema)
    assert any("Dt(G)" in p for p in problems)


def test_toda_operator_passes(schema):
    doc = report(TODA, symmetries=[symmetry((2, 3), G1), symmetry((3, 4), G2)],
                 recursion_operator=operator(TODA_R))
    assert check(TODA, doc, schema) == []


@pytest.mark.parametrize("index, entry", [
    (0, "R[1][1] = 2*u[0]*I"),
    (1, "R[1][2] = D^-1 + I"),
    (2, "R[2][1] = v[0]*I + v[0]*D^2"),
    (3, "R[2][2] = u[1]*I + (-u[0]*v[0] + u[1]*v[0])*S*v[0]^-2"),
])
def test_perturbed_operator_entry_fails(schema, index, entry):
    entries = list(TODA_R)
    entries[index] = entry
    doc = report(TODA, symmetries=[symmetry((2, 3), G1), symmetry((3, 4), G2)],
                 recursion_operator=operator(entries))
    problems = check(TODA, doc, schema)
    assert any(p.startswith("operator:") for p in problems)


def test_conditions_are_applied_and_required(schema):
    doc = report(PARAM_TODA, command="symmetries",
                 symmetries=[symmetry((3, 4), G2, ("a = 1", "b = 1"))])
    assert check(PARAM_TODA, doc, schema) == []
    lat = lattice(PARAM_TODA)
    expect = {"exit": 0, "symmetries": [((3, 4), ("a = 1", "b = 1"))], "exact": True}
    assert oracle.check_expected(lat, doc, 0, expect) == []
    generic = report(PARAM_TODA, command="symmetries", symmetries=[symmetry((3, 4), G2)])
    assert any("Dt(G)" in p for p in check(PARAM_TODA, generic, schema))
    rank2 = density(2, "(1/2)*b*u[0]^2 + v[0]", "u[0]*v[-1]", ("a*b - 1 = 0",))
    assert check(PARAM_TODA, report(PARAM_TODA, densities=[rank2]), schema) == []
    needs_condition = report(PARAM_TODA, densities=[
        density(1, "u[0]", "a*v[-1]", ("a = 1",)),
    ])
    assert oracle.check_expected(lat, needs_condition, 0, {"exit": 0, "exact": True}) == []
    flow = {"u": "a*v[-1] - v[0]", "v": "b*u[0]*v[0] - u[1]*v[0]"}
    needless = report(PARAM_TODA, symmetries=[symmetry((2, 3), flow, ("a = 1",))])
    assert oracle.check_expected(lat, needless, 0, {"exit": 0, "exact": True}) == [
        "symmetry ranks (2, 3) holds without its conditions"]


def test_known_forms_up_to_factor_and_difference():
    lat = lattice(MOD_VOLTERRA)
    forms = [(1, "u[0]*u[1]"), (2, "(1/2)*u[0]^2*u[1]^2 + u[0]*u[1]^2*u[2]")]
    expect = {"exit": 0, "forms": forms}
    shifted = report(MOD_VOLTERRA, densities=[
        density(1, "3*u[1]*u[2]", "0"),
        density(2, "u[0]^2*u[1]^2 + 2*u[0]*u[1]^2*u[2]", "0"),
    ])
    assert oracle.check_expected(lat, shifted, 0, expect) == []
    wrong = report(MOD_VOLTERRA, densities=[
        density(1, "u[0]*u[1]", "0"),
        density(2, "u[0]^2*u[1]^2 + u[0]*u[1]^2*u[2]", "0"),
    ])
    assert oracle.check_expected(lat, wrong, 0, expect) == [
        "density rank 2 is not (1/2)*u[0]^2*u[1]^2 + u[0]*u[1]^2*u[2]"]
    missing = report(MOD_VOLTERRA)
    assert len(oracle.check_expected(lat, missing, 2, expect)) == 2


def test_operator_expectations():
    lat = lattice(TODA)
    none = {"entries": [], "coefficients": {}, "verified": False, "checks": [],
            "failure_family": "symmetry-chain", "message": "no chain"}
    doc = report(TODA, recursion_operator=none)
    assert oracle.check_expected(lat, doc, 2, {"exit": 2, "operator": "none",
                                               "family": "symmetry-chain"}) == []
    assert oracle.check_expected(lat, doc, 2, {"exit": 2, "operator": "verified"})
    found = report(TODA, recursion_operator=operator(TODA_R))
    assert oracle.check_expected(lat, found, 0, {"exit": 2, "operator": "optional",
                                                 "family": "generation"}) == []
    assert oracle.check_expected(lat, found, 0, {"exit": 2, "operator": "none",
                                                 "family": "generation"})


def test_schema_violation_and_wrong_system_fail(schema):
    doc = report(TODA)
    del doc["verification"]
    assert check(TODA, doc, schema)[0].startswith("schema:")
    other = report(TODA)
    other["system"]["components"][0]["rhs"] = "v[-1] - 2*v[0]"
    assert "report system differs from the input file" in check(TODA, other, schema)
