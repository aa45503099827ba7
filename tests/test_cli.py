import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import BROKEN_TODA, PARAM_TODA, TODA
from lik.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

try:
    from importlib.resources import files
except ImportError:  # pragma: no cover
    files = None


@pytest.fixture(scope="module")
def schema():
    import lik

    path = files("lik") / "schema" / "report-v1.schema.json"
    return json.loads(path.read_text())


@pytest.fixture()
def toda_file(tmp_path):
    p = tmp_path / "toda.dde"
    p.write_text(TODA)
    return str(p)


@pytest.fixture()
def param_file(tmp_path):
    p = tmp_path / "param.dde"
    p.write_text(PARAM_TODA)
    return str(p)


@pytest.fixture()
def broken_file(tmp_path):
    p = tmp_path / "broken.dde"
    p.write_text(BROKEN_TODA)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeights:
    def test_toda(self, capsys, toda_file):
        code, out, _ = run(capsys, "weights", toda_file)
        assert code == 0
        assert "w(u) = 1" in out and "w(v) = 2" in out

    def test_underdetermined_requires_pin(self, capsys, tmp_path):
        p = tmp_path / "s.dde"
        p.write_text("u' = u[0]*v[0]\nv' = v[0]*v[1]\n")
        code, out, err = run(capsys, "weights", str(p))
        assert code == 2
        assert "underdetermined" in err
        code, out, err = run(capsys, "weights", "--weight", "u=1", str(p))
        assert code == 0
        assert "w(u) = 1" in out

    @pytest.mark.parametrize("value", ["0", "-1", "-1/2"])
    def test_nonpositive_pin_flag_rejected(self, capsys, tmp_path, value):
        p = tmp_path / "s.dde"
        p.write_text("u' = u[0]*v[0]\nv' = v[0]*v[1]\n")
        code, out, err = run(capsys, "weights", "--weight", f"u={value}", str(p))
        assert code == 1 and out == ""
        assert err == f"error: --weight u must be positive, got {value!r}\n"

    def test_nonpositive_pin_directive_rejected(self, capsys, tmp_path):
        p = tmp_path / "s.dde"
        p.write_text("u' = u[0]*v[0]\nv' = v[0]*v[1]\nweight: u = -1\n")
        code, out, err = run(capsys, "weights", str(p))
        assert code == 1 and out == ""
        assert err == "parse error: 3:1: weight of 'u' must be positive, got -1\n"

    def test_not_dilation_invariant(self, capsys, tmp_path):
        p = tmp_path / "s.dde"
        p.write_text("u' = u[1]\n")
        code, _, err = run(capsys, "weights", str(p))
        assert code == 2
        assert "dilation" in err


class TestDensities:
    def test_golden_rank4(self, capsys, toda_file):
        code, out, _ = run(capsys, "densities", "--max-rank", "4", toda_file)
        assert code == 0
        assert "rho = u[0]" in out
        assert "rho = (1/2)*u[0]^2 + v[0]" in out
        assert "rho = (1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]" in out
        assert (
            "rho = (1/4)*u[0]^4 + u[0]^2*v[-1] + u[0]^2*v[0] + u[0]*u[1]*v[0]"
            " + (1/2)*v[0]^2 + v[0]*v[1]" in out
        )
        assert "flux_decomposition = u[-1]*u[0]*v[-1] + v[-1]^2" in out

    def test_unreachable_rank(self, capsys, toda_file):
        code, out, _ = run(capsys, "densities", "--rank", "1/2", toda_file)
        assert code == 2


class TestSymmetries:
    def test_levels(self, capsys, toda_file):
        code, out, _ = run(capsys, "symmetries", "--levels", "2", toda_file)
        assert code == 0
        assert "ranks (2, 3):" in out and "ranks (3, 4):" in out
        assert "G_u = -v[-1] + v[0]" in out

    def test_parameter_conditions(self, capsys, param_file):
        code, out, _ = run(capsys, "symmetries", "--ranks", "3,4", param_file)
        assert code == 0
        assert "conditions: a = 1, b = 1" in out
        assert "no candidate" in out

    def test_no_symmetry_rank(self, capsys, broken_file):
        code, out, _ = run(capsys, "symmetries", "--ranks", "3,4", broken_file)
        assert code == 2

    def test_normalize_tag(self, capsys, toda_file):
        code, out, _ = run(
            capsys, "symmetries", "--ranks", "3,4", "--normalize", "c3", toda_file
        )
        assert code == 0
        assert "G_u = " in out

    def test_normalize_unknown_tag_rejected(self, capsys, toda_file):
        code, out, err = run(
            capsys, "symmetries", "--ranks", "3,4", "--normalize", "zz", toda_file
        )
        assert code == 1 and out == ""
        assert "'zz'" in err and "c1..c17" in err


class TestRecursion:
    def test_toda(self, capsys, toda_file):
        code, out, _ = run(capsys, "recursion", toda_file)
        assert code == 0
        assert "R[1][1] = u[0]*I" in out
        assert "c17 = -1" in out
        assert "verdict: generates G(2), G(3), G(4), G(5): verified" in out

    def test_broken(self, capsys, broken_file):
        code, out, _ = run(capsys, "recursion", broken_file)
        assert code == 2
        assert "no operator (symmetry-chain)" in out

    @pytest.mark.parametrize(
        "system",
        [
            "systems/toda.dde",
            "systems/volterra.dde",
            "perfbench/systems/modified_volterra.dde",
            "tests/golden/scaled_volterra.dde",
        ],
    )
    def test_operator_is_a_valid_certificate(self, capsys, tmp_path, system):
        # what lik recursion emits, lik verify --operator accepts
        system = str(ROOT / system)
        code, out, _ = run(capsys, "recursion", "--json", system)
        assert code == 0
        entries = json.loads(out)["recursion_operator"]["entries"]
        f = tmp_path / "operator.txt"
        f.write_text("\n".join(entries) + "\n")
        code, out, _ = run(capsys, "verify", "--operator", str(f), "--json", system)
        assert code == 0
        verdicts = [v["verdict"] for v in json.loads(out)["verification"]]
        assert verdicts == ["pass"] * 6


class TestVerify:
    def test_density_pass_and_fail(self, capsys, tmp_path, toda_file):
        good = tmp_path / "good.txt"
        good.write_text(
            "rho = (1/3)*u[0]^3 + u[0]*v[-1] + u[0]*v[0]\n"
            "flux = u[-1]*u[0]*v[-1] + v[-1]^2\n"
        )
        code, out, _ = run(capsys, "verify", "--density", str(good), toda_file)
        assert code == 0 and "pass" in out
        bad = tmp_path / "bad.txt"
        bad.write_text("rho = u[0]\nflux = v[0]\n")
        code, out, _ = run(capsys, "verify", "--density", str(bad), toda_file)
        assert code == 3 and "fail" in out

    def test_symmetry(self, capsys, tmp_path, toda_file):
        f = tmp_path / "g.txt"
        f.write_text(
            "G_u = v[0] - v[-1]\nG_v = u[1]*v[0] - u[0]*v[0]\n"
        )
        code, out, _ = run(capsys, "verify", "--symmetry", str(f), toda_file)
        assert code == 0 and "pass" in out

    def test_operator(self, capsys, tmp_path, toda_file):
        f = tmp_path / "op.txt"
        f.write_text(
            "R[1][1] = u[0]*I\n"
            "R[1][2] = D^-1 + I + (v[0] - v[-1])*S*(1/v[0])\n"
            "R[2][1] = v[0]*I + v[0]*D\n"
            "R[2][2] = u[1]*I + v[0]*(u[1] - u[0])*S*(1/v[0])\n"
        )
        code, out, _ = run(capsys, "verify", "--operator", str(f), toda_file)
        assert code == 0
        assert out.count("pass") == 6
        broken = tmp_path / "op2.txt"
        broken.write_text(
            "R[1][1] = u[0]*I\nR[1][2] = D^-1 + I\n"
            "R[2][1] = v[0]*I + v[0]*D\nR[2][2] = u[1]*I\n"
        )
        code, out, _ = run(capsys, "verify", "--operator", str(broken), toda_file)
        assert code == 3

    @pytest.mark.parametrize(
        "system, certificate",
        [
            # not dilation invariant: the rank balance is inconsistent
            ("u' = u[1] - u[0]\n", "rho = u[0]\nflux = -u[0]\n"),
            # a free scale: the weights are underdetermined
            (GOLDEN / "free_scale.dde", "rho = u[0]\nflux = 0\n"),
        ],
        ids=["not-invariant", "free-scale"],
    )
    def test_without_weights(self, capsys, tmp_path, schema, system, certificate):
        # verification uses no weights, so it runs when they fail
        if isinstance(system, str):
            (tmp_path / "system.dde").write_text(system)
            system = tmp_path / "system.dde"
        f = tmp_path / "rho.txt"
        f.write_text(certificate)
        code, out, _ = run(
            capsys, "verify", "--density", str(f), "--json", str(system)
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["weights"] is None
        assert doc["verification"][0]["verdict"] == "pass"
        code, _, err = run(capsys, "weights", str(system))
        assert code == 2 and err.startswith("no result: ")


class TestDiagnostics:
    def test_parse_error_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.dde"
        p.write_text("u' = v[0]/u[0]\nv' = u[0]\n")
        code, out, err = run(capsys, "weights", str(p))
        assert code == 1
        assert "non-polynomial" in err and out == ""

    def test_position_in_diagnostics(self, capsys, tmp_path):
        p = tmp_path / "bad.dde"
        p.write_text("u' = u[0]\nv' = w[3]\n")
        code, _, err = run(capsys, "weights", str(p))
        assert code == 1
        assert "2:" in err

    def test_expression_columns_count_from_line_start(self, capsys, tmp_path):
        p = tmp_path / "bad.dde"
        p.write_text("u' = u[0]\nv' = u[0] + w[3]\n")
        code, out, err = run(capsys, "weights", str(p))
        assert code == 1 and out == ""
        assert err.startswith("parse error: 2:13: unknown component 'w'")

    def test_certificate_columns_count_from_line_start(
        self, capsys, tmp_path, toda_file
    ):
        f = tmp_path / "cert.txt"
        f.write_text("rho = u[0] + q[1]\nflux = v[0]\n")
        code, out, err = run(capsys, "verify", "--density", str(f), toda_file)
        assert code == 1 and out == ""
        assert "1:14: unknown component 'q'" in err

    def test_operator_file_with_two_nonlocal_factors(self, tmp_path, toda_file):
        f = tmp_path / "op.txt"
        f.write_text(
            "R[1][1] = u[0]*I\nR[1][2] = D^-1 + I\n"
            "R[2][1] = v[0]*I + v[0]*D\nR[2][2] = S*S\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "lik", "verify", "--operator", str(f), toda_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        # the second S is at column 13 of the line
        assert proc.stderr.startswith("parse error: 4:13: composition of two")
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize(
        "kind, text, position",
        [
            ("system", "params: a\nu' = u[0]/a\n", "2:11:"),
            ("system", "params: a\nu' = u[0]*a^-1\n", "2:12:"),
            ("--density", "rho = u[0]\nflux = u[0]/a\n", "2:13:"),
            ("--symmetry", "G_u = a^-1*u[0]\n", "1:8:"),
            ("--operator", "R[1][1] = 1/a\n", "1:13:"),
        ],
        ids=["system-slash", "system-power", "density", "symmetry", "operator"],
    )
    def test_division_by_parameter(self, tmp_path, kind, text, position):
        path = tmp_path / "input.txt"
        path.write_text(text)
        if kind == "system":
            argv = ["weights", str(path)]
        else:
            system = tmp_path / "volterra.dde"
            system.write_text("params: a\nu' = a*u[0]*(u[1] - u[-1])\n")
            argv = ["verify", kind, str(path), str(system)]
        proc = subprocess.run(
            [sys.executable, "-m", "lik", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"parse error: {position} ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "power, command, code, message",
        [
            ("2147483647", "weights", 0, ""),
            ("2147483648", "weights", 1, "parse error: 2:7: "),
            ("4294967296", "densities", 1, "parse error: 2:7: "),
            ("(2147483647)*a", "weights", 1, "parse error: 2:21: "),
            # parses, but Dt of Dt(u) squares the largest exponent
            ("2147483647", "densities", 1, "error: "),
        ],
        ids=["largest", "first-past", "2**32", "product", "in-solve"],
    )
    def test_parameter_exponent_limit(
        self, capsys, tmp_path, power, command, code, message
    ):
        p = tmp_path / "s.dde"
        p.write_text(f"params: a\nu' = a^{power}*u[0]*(u[1] - u[-1])\n")
        argv = [command, str(p)] + (["--max-rank", "3"] if command == "densities" else [])
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert out == ""
            assert err == f"{message}parameter exponent outside 0..2147483647\n"

    @pytest.mark.parametrize(
        "flag, text, key",
        [
            ("--density", "rho = u[0]\nflux = v[-1]\nflux = v[0]\n", "flux"),
            (
                "--symmetry",
                "G_u = v[0] - v[-1]\nG_v = u[1]*v[0]\nG_u = v[0]\n",
                "G_u",
            ),
        ],
        ids=["density", "symmetry"],
    )
    def test_duplicate_certificate_key(
        self, capsys, tmp_path, toda_file, flag, text, key
    ):
        f = tmp_path / "cert.txt"
        f.write_text(text)
        code, out, err = run(capsys, "verify", flag, str(f), toda_file)
        assert code == 1 and out == ""
        assert f"3:1: duplicate assignment for {key!r}" in err

    @pytest.mark.parametrize(
        "argv, found",
        [
            (("densities", "--max-rank", "1"), "rho = u[0]"),
            (("symmetries", "--levels", "1"), "G_u = -u[-1]*u[0] + u[0]*u[1]"),
            (("recursion",), "verdict: generates G(2), G(3), G(4), G(5): verified"),
        ],
    )
    def test_parameters_named_like_unknown_tags(self, capsys, tmp_path, argv, found):
        # the first tag of every one-letter prefix is taken by a parameter
        p = tmp_path / "clash.dde"
        p.write_text("params: c1, k1, q1, t1\nu' = c1*k1*q1*t1*u[0]*(u[1] - u[-1])\n")
        code, out, err = run(capsys, *argv, str(p))
        assert (code, err) == (0, "")
        assert found in out
        coefficients = [x for x in out.splitlines() if "coefficients:" in x]
        for name in ("c1", "k1", "q1", "t1"):
            assert all(f" {name} = " not in x for x in coefficients)

    def test_usage_error(self, capsys, toda_file):
        code, _, err = run(capsys, "densities", toda_file)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "weights", "/nonexistent/x.dde")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("densities", "--max-rank", "0"),
            ("densities", "--rank", "-2"),
            ("symmetries", "--levels", "0"),
            ("symmetries", "--ranks", "3,4", "--gap", "0"),
            ("recursion", "--levels", "0"),
            ("recursion", "--gap", "-1"),
        ],
    )
    def test_nonpositive_arguments_rejected(self, capsys, toda_file, argv):
        code, _, err = run(capsys, *argv, toda_file)
        assert code == 1 and err


class TestJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ("weights",),
            ("densities", "--max-rank", "3"),
            ("symmetries", "--levels", "2"),
            ("recursion",),
        ],
    )
    def test_schema_valid(self, capsys, toda_file, schema, argv):
        code, out, _ = run(capsys, *argv, "--json", toda_file)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    def test_schema_valid_parametrized(self, capsys, param_file, schema):
        code, out, _ = run(
            capsys, "symmetries", "--ranks", "3,4", "--json", param_file
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["symmetries"][0]["conditions"] == ["a = 1", "b = 1"]
        outcomes = {c["outcome"] for c in doc["conditions"]}
        assert outcomes == {"symmetry found", "no candidate"}

    def test_verify_json(self, capsys, tmp_path, toda_file, schema):
        f = tmp_path / "g.txt"
        f.write_text("G_u = v[0] - v[-1]\nG_v = u[1]*v[0] - u[0]*v[0]\n")
        code, out, _ = run(
            capsys, "verify", "--symmetry", str(f), "--json", toda_file
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["verification"][0]["verdict"] == "pass"

    def test_expressions_round_trip(self, capsys, toda_file):
        from lik.parser import parse_expression

        code, out, _ = run(
            capsys, "densities", "--max-rank", "4", "--json", toda_file
        )
        doc = json.loads(out)
        names = [c["name"] for c in doc["system"]["components"]]
        for entry in doc["densities"]:
            for key in ("rho", "flux", "flux_decomposition"):
                parse_expression(entry[key], names)


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, param_file):
        runs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "symmetries", "--ranks", "3,4", "--json", param_file
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_console_entry_point(self, toda_file):
        proc = subprocess.run(
            [sys.executable, "-m", "lik", "weights", toda_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "w(u) = 1" in proc.stdout

    def test_import_loads_no_dataclass_machinery(self):
        # -S: no site hooks, so only lik's own imports count
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import lik.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(ROOT / "src")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "dataclasses" not in loaded
        if sys.version_info[:2] == (3, 11):
            assert "inspect" not in loaded


class TestFactorImport:
    # lik.factor is imported only to factor a polynomial that is not linear
    # in a parameter with a unit-monomial coefficient; the pivot test and
    # the certificate run in the ring
    @pytest.mark.parametrize(
        "args, loaded",
        [
            (("symmetries", "--levels", "2", "systems/parameterized_toda.dde"), False),
            (("densities", "--max-rank", "5",
              "perfbench/systems/parameterized_volterra.dde"), False),
            (("densities", "--max-rank", "6", "systems/parameterized_toda.dde"), True),
        ],
        ids=["toda-symmetries-2", "volterra-densities-5", "toda-densities-6"],
    )
    def test_loaded_only_to_factor(self, args, loaded):
        code = (
            "import io, sys; sys.path.insert(0, sys.argv[1]); "
            "from contextlib import redirect_stdout; from lik.cli import main\n"
            "with redirect_stdout(io.StringIO()): code = main(sys.argv[2:])\n"
            "print(code, 'lik.factor' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(ROOT / "src"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", str(loaded)]


class TestBranchDepth:
    def test_env_var_read(self, capsys, param_file, monkeypatch):
        monkeypatch.setenv("LIK_BRANCH_DEPTH", "6")
        code, out, _ = run(capsys, "symmetries", "--ranks", "3,4", param_file)
        assert code == 0

    def test_bad_env_var(self, capsys, param_file, monkeypatch):
        monkeypatch.setenv("LIK_BRANCH_DEPTH", "many")
        code, _, err = run(capsys, "symmetries", "--ranks", "3,4", param_file)
        assert code == 1 and "LIK_BRANCH_DEPTH" in err

    def test_negative_flag_rejected(self, capsys, param_file):
        code, out, err = run(
            capsys, "densities", "--rank", "2", "--branch-depth", "-1", param_file
        )
        assert code == 1 and out == ""
        assert "--branch-depth" in err

    def test_negative_env_var_rejected(self, capsys, param_file, monkeypatch):
        monkeypatch.setenv("LIK_BRANCH_DEPTH", "-1")
        code, out, err = run(capsys, "densities", "--rank", "2", param_file)
        assert code == 1 and out == ""
        assert "LIK_BRANCH_DEPTH" in err

    def test_depth_zero_reports_exhaustion(self, capsys, param_file):
        code, out, _ = run(
            capsys,
            "symmetries", "--ranks", "3,4", "--branch-depth", "0", param_file,
        )
        # with no branching allowed the split is reported, never silent
        assert code == 2
        assert "depth exhausted" in out
