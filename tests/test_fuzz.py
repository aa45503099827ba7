"""Fuzzing the four input file kinds through the command line, in process.

Hypothesis writes system files, density and symmetry certificates and
operator files from short token sequences and runs them through
``lik.cli.main``.  Whatever the input, the command must return one of the
documented exit codes and never raise; an exit 1 must say why, as a
positioned parse error or a usage error.  The search is derandomized and
keeps no example database, so the test is deterministic.
"""

import contextlib
import io
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lik.cli import main

# parameterized Volterra: one weight, one parameter the tokens can divide by
SYSTEM = "params: a\nu' = a*u[0]*(u[1] - u[-1])\n"
TOKENS = [
    "u[0]", "u[1]", "u[-1]", "u", "a", "D", "S", "I", "^", "/", "*", "+",
    "-", "(", ")", "[", "]", "0", "1", "2", "-1",
]
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)
EXIT_1_MESSAGE = re.compile(r"parse error: \d+:\d+: |error: ")

expressions = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7).map(
    " ".join
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "system.dde").write_text(SYSTEM)
    return path


def _run(workdir, text: str, *argv: str) -> None:
    """Write text to the input file, run lik and check the outcome."""
    (workdir / "input.txt").write_text(text)
    argv = [a.format(dir=workdir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert EXIT_1_MESSAGE.match(err.getvalue()), err.getvalue()


@FUZZ
@given(expressions, expressions)
def test_system_files(workdir, first, second):
    text = f"params: a\nu' = {first}\nv' = {second}\n"
    _run(workdir, text, "weights", "{dir}/input.txt")


@FUZZ
@given(expressions, expressions)
def test_density_certificates(workdir, rho, flux):
    _run(
        workdir,
        f"rho = {rho}\nflux = {flux}\n",
        "verify", "--density", "{dir}/input.txt", "{dir}/system.dde",
    )


@FUZZ
@given(expressions)
def test_symmetry_certificates(workdir, component):
    _run(
        workdir,
        f"G_u = {component}\n",
        "verify", "--symmetry", "{dir}/input.txt", "{dir}/system.dde",
    )


@FUZZ
@given(expressions)
def test_operator_files(workdir, entry):
    _run(
        workdir,
        f"R[1][1] = {entry}\n",
        "verify", "--operator", "{dir}/input.txt", "{dir}/system.dde",
    )
