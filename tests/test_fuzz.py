"""Every entry point ends in an answer or a one-line error.

main returns 0 or 1 on any argv and any stdin, never 2 and never a
traceback, and a 1 comes with one `error: ` line on stderr.  The text
parsers raise only ValueError.  Argv is a subcommand followed by flags and
values from a fixed vocabulary; --samples stays at most 10, since Monte
Carlo has no sample cap and a large count is a long run by request.
"""

import contextlib
import io
import sys
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from pclifford.cli import main
from pclifford.f2core import parse_matrix
from pclifford.group import parse_braid_word
from pclifford.stabilizer import parse_stabilizer
from pclifford.strings import BASES, parse_string

SUBCOMMANDS = ["order", "sample", "jw", "compose", "stab-encode", "frame", "orbits", "verify"]
GOOD_NUMBERS = ["-1", "0", "1", "2", "4", str(2**70)]
NUMBERS = GOOD_NUMBERS + ["abc", ""]
WORDS = ["o", "sp", "majorana", "pauli", "full", "even-quotient", "-", "bogus", ""]
CHOICES = {"--group": ["o", "sp"], "--basis": ["majorana", "pauli"], "--space": ["full", "even-quotient"]}
VALUED = ["--group", "--dim", "--n", "--index", "--seed", "--basis", "--t", "--tuple-order", "--space"]
SWITCHES = ["--exact", "--parity-restricted", "--help", "--frob"]
# the flags each subcommand requires and the others it takes, so that most
# calls reach their handler
REQUIRED = {
    "order": ["--group", "--dim"],
    "sample": ["--group", "--dim"],
    "jw": ["--dim"],
    "frame": ["--group", "--dim", "--t"],
    "orbits": ["--group", "--dim"],
}
OPTIONAL = {
    "sample": ["--index", "--seed", "--basis"],
    "compose": ["--basis"],
    "frame": ["--exact", "--seed", "--parity-restricted"],
    "orbits": ["--tuple-order", "--space"],
    "verify": ["--seed"],
}
SMALL_SAMPLES = ["-1", "0", "1", "2", "10", "abc"]

# one call stays well under a second; this bound only tells a hang
CALL_SECONDS = 5


@st.composite
def flag_with_value(draw, flag):
    """The flag (--dim may become --n), then a value from its domain, or
    now and then one from the whole vocabulary of its kind."""
    if flag == "--dim":
        flag = draw(st.sampled_from(["--dim", "--n"]))
    if flag in SWITCHES:
        return [flag]
    good, bad = (CHOICES[flag], WORDS) if flag in CHOICES else (GOOD_NUMBERS, NUMBERS)
    return [flag, draw(st.sampled_from(good) | st.sampled_from(good + bad))]


@st.composite
def argvs(draw):
    """A subcommand, most often with its required flags, then flags of its
    own or of any subcommand and stray values."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    argv = [sub]
    for flag in REQUIRED.get(sub, []) if draw(st.integers(0, 3)) else []:
        argv += draw(flag_with_value(flag))
    own = OPTIONAL.get(sub, []) + REQUIRED.get(sub, [])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 4))
        if kind < 3 and own:
            argv += draw(flag_with_value(draw(st.sampled_from(own))))
        elif kind == 3:
            argv += draw(flag_with_value(draw(st.sampled_from(VALUED + SWITCHES))))
        else:
            argv.append(draw(st.sampled_from(NUMBERS + WORDS)))
    if sub == "frame":
        # the last occurrence wins, so this keeps every sample count small
        argv += ["--samples", draw(st.sampled_from(SMALL_SAMPLES))]
    return argv


bits = st.text("01", max_size=10)
string_lines = st.builds(
    lambda phase, v: f"i^{phase} {v}", st.sampled_from(NUMBERS), bits
)
stabilizer_texts = st.builds(
    lambda n, r, rows, sign: "\n".join([f"n={n} r={r}", *rows, sign]),
    st.sampled_from(NUMBERS),
    st.sampled_from(NUMBERS),
    st.lists(bits, max_size=4),
    st.sampled_from(["", "sign=0000", "sign=01", "x"]),
)
noise = st.text(st.sampled_from("01 \ni^-=nrsignBP2x"), max_size=40)
stdin_texts = st.one_of(
    noise, st.lists(string_lines, max_size=4).map("\n".join), stabilizer_texts, st.text(max_size=20)
)


def check_main(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    assert code in (0, 1), (argv, stdin, err.getvalue())
    if code == 1:
        errors = [ln for ln in err.getvalue().splitlines() if "error: " in ln]
        assert len(errors) == 1, (argv, stdin, err.getvalue())
    assert elapsed < CALL_SECONDS, (argv, stdin, elapsed)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argvs(), stdin_texts)
@example(["order", "--group", "o", "--dim", str(2**70)], "")
@example(["frame", "--group", "o", "--dim", "4", "--t", str(2**70), "--samples", "10"], "")
@example(["orbits", "--group", "sp", "--dim", "4", "--tuple-order", str(2**70)], "")
@example(["stab-encode", "-"], "n=2 r=1\n1100\n")
@example(["stab-encode"], f"n={2**70} r=0\n")  # once exit 2: 1 << n overflowed
@example(["compose", "--basis", "pauli"], "i^1 0110\ni^3 1111\n")
def test_main_answers_or_names_the_error(monkeypatch, tmp_path, argv, stdin):
    monkeypatch.chdir(tmp_path)  # a stray path names no file of the checkout
    check_main(argv, stdin)


def raises_only_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


texts = st.one_of(noise, st.text(max_size=40))


@settings(max_examples=200, deadline=None)
@given(texts, st.sampled_from(BASES))
@example("i^99999999999999999999 0110", "majorana")
@example("i^" + "9" * 5000 + " 01", "pauli")
def test_parse_string_raises_only_value_error(text, basis):
    raises_only_value_error(lambda t: parse_string(t, basis), text)


@settings(max_examples=200, deadline=None)
@given(texts)
@example("01\n011\n")
def test_parse_matrix_raises_only_value_error(text):
    raises_only_value_error(parse_matrix, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(texts, stabilizer_texts))
@example("n=2 r=1 r=2\n1100\n")
@example("n=" + "9" * 5000 + " r=1\n")
@example(f"n={2**70} r=0\n")
def test_parse_stabilizer_raises_only_value_error(text):
    raises_only_value_error(parse_stabilizer, text)


braid_texts = st.lists(
    st.one_of(bits.map("B {}".format), string_lines.map("P {}".format), noise), max_size=4
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(texts, braid_texts))
@example("P i^1 1\n")
@example("B 0\n")
@example("B 11\nP i^0 11\n")
def test_parse_braid_word_raises_only_value_error(text):
    raises_only_value_error(parse_braid_word, text)
