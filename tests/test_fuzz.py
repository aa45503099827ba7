"""Fuzzing the four input file kinds and the flag values through the
command line, in process.

Hypothesis writes system files, density and symmetry certificates and
operator files from short token sequences, operator files also from
longer ones (up to 15 tokens), and flag values from short token joins,
and runs them through ``lik.cli.main``.  Whatever the input,
the command must return one of the documented exit codes and never raise;
an exit 1 must say why, as a positioned parse error or a usage error.  The
search is derandomized and keeps no example database, so the test is
deterministic.  Files that are not UTF-8 and expressions nested too deeply
for the parser are checked the same way.
"""

import contextlib
import io
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import TODA
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
long_expressions = st.lists(
    st.sampled_from(TOKENS), min_size=8, max_size=15
).map(" ".join)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "system.dde").write_text(SYSTEM)
    return path


def _run(workdir, text: str | bytes, *argv: str) -> tuple[int, str]:
    """Write text (or raw bytes) to the input file, run lik and check the
    outcome; returns the exit code and what went to stderr."""
    path = workdir / "input.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    argv = [a.format(dir=workdir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert EXIT_1_MESSAGE.match(err.getvalue()), err.getvalue()
    return code, err.getvalue()


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


# operator entries nest products, powers and inverse differences, so they
# also get longer token sequences (8 to 15 tokens), with more examples
@settings(FUZZ, max_examples=900)
@given(st.one_of(expressions, long_expressions))
def test_operator_files(workdir, entry):
    _run(
        workdir,
        f"R[1][1] = {entry}\n",
        "verify", "--operator", "{dir}/input.txt", "{dir}/system.dde",
    )


# each file kind: the lik arguments, and a line layout for one expression
KINDS = {
    "system": (("weights", "{dir}/input.txt"), "u' = {}\n"),
    "density": (
        ("verify", "--density", "{dir}/input.txt", "{dir}/system.dde"),
        "rho = {}\nflux = 0\n",
    ),
    "symmetry": (
        ("verify", "--symmetry", "{dir}/input.txt", "{dir}/system.dde"),
        "G_u = {}\n",
    ),
    "operator": (
        ("verify", "--operator", "{dir}/input.txt", "{dir}/system.dde"),
        "R[1][1] = {}\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_non_utf8_input(workdir, kind):
    code, err = _run(workdir, b"u' = u[0]\xff", *KINDS[kind][0])
    assert code == 1
    assert err.startswith(f"error: cannot read {workdir}/input.txt: "), err


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_deep_nesting(workdir, kind):
    argv, layout = KINDS[kind]
    code, err = _run(workdir, layout.format("(" * 400 + "u[0]" + ")" * 400), *argv)
    assert code == 1
    # positioned at the start of the expression, whatever the stack depth
    col = layout.index("{}") + 1
    assert err == f"parse error: 1:{col}: expression nested too deeply\n"


# Flag values are joined from whole tokens; a single token is drawn as
# often as a longer join, so that valid values come up.  At most three
# tokens and no number above 2 keep every run short: ranks, levels and gaps
# are at most 2, so levels * gap <= 4.
FLAG_TOKENS = ["0", "1", "2", "-1", "1/2", "1/0", "u", "x", ",", "=", ""]
flag_values = st.one_of(
    st.sampled_from(FLAG_TOKENS),
    st.lists(st.sampled_from(FLAG_TOKENS), min_size=2, max_size=3)
    .map("".join)
    .filter(lambda v: all(int(d) <= 2 for d in re.findall(r"\d+", v))),
)
# a weight pin is either any value or name=value from two single tokens
weight_values = st.one_of(
    flag_values,
    st.tuples(st.sampled_from(FLAG_TOKENS), st.sampled_from(FLAG_TOKENS)).map(
        "=".join
    ),
)
commands = st.one_of(
    st.just(("weights",)),
    st.tuples(
        st.just("densities"), st.sampled_from(["--rank", "--max-rank"]), flag_values
    ),
    st.tuples(st.just("symmetries"), st.just("--ranks"), flag_values),
    st.tuples(
        st.sampled_from(["symmetries", "recursion"]),
        st.just("--levels"), flag_values, st.just("--gap"), flag_values,
    ),
)


@FUZZ
@given(
    commands,
    st.lists(weight_values, max_size=1),
    st.one_of(st.none(), st.sampled_from(FLAG_TOKENS), flag_values),
)
def test_flags(workdir, command, weights, branch_depth):
    name, *pairs = command
    argv = [name]
    argv += [f"{flag}={value}" for flag, value in zip(pairs[::2], pairs[1::2])]
    argv += [f"--weight={value}" for value in weights]
    if branch_depth is not None:
        argv.append(f"--branch-depth={branch_depth}")
    code, err = _run(workdir, TODA, *argv, "{dir}/input.txt")
    if code == 1:
        assert err.startswith("error: "), err
