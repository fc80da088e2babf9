"""Arbitrary input files through cli.main: every run must end with exit
0, 1 or 2 and print no traceback. Headers and set members draw huge and
negative integers as well as small ones, so the range checks must come
before any shift.

Arbitrary argvs through the exact reader: it must decline or agree with
argparse, and take every form of the README synopsis."""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from contactalg import generate_topology
from contactalg.cli import _exact_args, build_parser, main

SMALL = st.integers(0, 5)
INTS = st.one_of(
    SMALL,
    st.integers(-2, 9),
    st.integers(10**9, 10**40),
    st.integers(-(10**40), -(10**9)),
)
NOISE = st.text(max_size=20)


def members(ints):
    return st.lists(ints, max_size=4).map(lambda ms: "{" + ",".join(map(str, ms)) + "}")


def lines(header, body):
    """A header then body lines. Three of the four header draws are small
    counts, so most files get past the header."""
    count = st.one_of(SMALL, st.integers(1, 6), st.integers(0, 8), INTS)
    head = count.map(lambda n: f"{header}: {n}")
    return st.tuples(head, st.lists(body, max_size=12)).map(
        lambda t: "\n".join([t[0], *t[1]])
    )


ALGEBRA_TEXT = lines("atoms", st.one_of(
    st.tuples(SMALL, SMALL).map(lambda t: f"contact: {t[0]} {t[1]}"),
    st.tuples(INTS, INTS).map(lambda t: f"contact: {t[0]} {t[1]}"),
    st.one_of(members(SMALL), members(INTS)).map(lambda s: f"bounded: {s}"),
    NOISE,
))
SPACE_TEXT = lines("points", st.one_of(
    members(SMALL).map(lambda s: f"open: {s}"),
    members(INTS).map(lambda s: f"open: {s}"),
    st.tuples(INTS, INTS).map(lambda t: f"map: {t[0]} {t[1]}"),
    NOISE,
))


@st.composite
def topology_text(draw):
    """A valid space file: the topology generated by a random subbase."""
    n = draw(st.integers(0, 5))
    subbase = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))
    X = generate_topology(n, subbase)
    opens = "".join(f"open: {{{','.join(map(str, sorted(X.points(u))))}}}\n" for u in X.opens)
    return f"points: {n}\n{opens}"


BUDGET = settings(
    max_examples=60,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_on(data: bytes, *argv_head: str) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv_head, path])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1


def files(*texts):
    return st.one_of(
        *(t.map(str.encode) for t in texts),
        st.text(max_size=200).map(str.encode),
        st.binary(max_size=64),
    )


@BUDGET
@given(files(ALGEBRA_TEXT))
def test_check_survives_any_algebra_file(data):
    run_on(data, "check")


@BUDGET
@given(files(SPACE_TEXT, topology_text()))
def test_space_weight_survives_any_space_file(data):
    run_on(data, "space", "weight")


@BUDGET
@given(files(SPACE_TEXT, topology_text()))
def test_crosscheck_survives_any_space_file(data):
    run_on(data, "crosscheck")


PARSER, GRAMMAR = build_parser()
TOP, COMMANDS = GRAMMAR
OPTIONS = sorted({s for syntax in (TOP, *COMMANDS.values()) for s in syntax[1]})
VALUES = ["0", "2", "12", "-2", "", "rs", "all", "reflexive-symmetric", "lambda-t", "rc",
          "{0,1}", "{0};{1}", "a.alg", "b.space", "x"]
WORDS = [*COMMANDS, *OPTIONS, *(s[:k] for s in OPTIONS for k in range(3, len(s))),
         "-h", "--help", "--", "-", *VALUES]
TOKEN = st.one_of(
    st.sampled_from(WORDS),
    st.tuples(st.sampled_from(OPTIONS), st.sampled_from(VALUES)).map("=".join),
)


def value(draw, action) -> str:
    """Three times in four a value the action takes, else any of the pool."""
    good = action.choices or (["2", "12"] if action.type is int else ["a.alg", "{0,1}"])
    return draw(st.sampled_from(sorted(good) if draw(st.integers(0, 3)) else VALUES))


@st.composite
def near_forms(draw):
    """A command with about its positionals and some of its options, from
    the parser's own names, with up to two tokens of the pool put in."""
    argv = ["--cap-atoms", value(draw, TOP[1]["--cap-atoms"])] if draw(st.booleans()) else []
    name = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, options = COMMANDS[name][:2]
    argv.append(name)
    for action in positionals:
        argv += [value(draw, action) for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])))]
    for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True)) if options else []:
        argv += [option] if options[option].nargs == 0 else [option, value(draw, options[option])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKEN))
    return argv


def argparse_args(argv):
    """argparse's Namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def agrees_with_argparse(argv) -> bool:
    """The reader declines, or returns argparse's Namespace; True if it took argv."""
    args = _exact_args(GRAMMAR, argv)
    if args is not None:
        expected = argparse_args(argv)
        assert expected is not None, argv
        assert vars(args) == vars(expected), argv
    return args is not None


@settings(max_examples=400, deadline=None)
@given(st.one_of(near_forms(), st.lists(TOKEN, max_size=8)))
def test_exact_reader_declines_or_agrees_with_argparse(argv):
    agrees_with_argparse(argv)


def readme_forms():
    """Each line of the README synopsis as argvs: once with no bracketed
    option and once with all of them, each alternative of a|b separately."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    forms = [re.split(r"\s{2,}", line.strip())[0].split(" ", 1)[1] for line in block.strip().splitlines()]
    words = {"N": "2", "K": "2", "S": "{0};{1}", "{i,...}": "{0,1}", "...": None}
    out = []
    for form in forms:
        if "<command>" in form:
            continue
        for spelled in (re.sub(r" \[[^]]*\]", "", form), form.replace("[", "").replace("]", "")):
            tokens = spelled.split()
            choices = [t.split("|") for t in tokens]
            for pick in range(max(map(len, choices))):
                argv = [c[min(pick, len(c) - 1)] for c in choices]
                argv = [w[1:-1] if w.startswith("<") else words.get(w, w) for w in argv]
                argv = [w for w in argv if w is not None]
                out += [a for a in (argv, ["--cap-atoms", "12", *argv]) if a not in out]
    return out


README_FORMS = readme_forms()


def test_readme_synopsis_covers_every_command():
    assert {argv[0] for argv in README_FORMS if argv[0] != "--cap-atoms"} == set(COMMANDS)
    assert len(README_FORMS) >= 4 * len(COMMANDS)


@pytest.mark.parametrize("argv", README_FORMS, ids=" ".join)
def test_exact_reader_takes_every_readme_form(argv):
    assert agrees_with_argparse(argv)


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["dim", "a.alg", "-h"],
    ["dim", "a.alg", "--max-n=2"],
    ["dim", "a.alg", "--max", "2"],
    ["dim", "--", "a.alg"],
    ["dim", "a.alg", "--max-n", "-2"],
    ["dim", "a.alg", "--scan", "--scan"],
    ["--cap-atoms", "9", "--cap-atoms", "10", "check", "a.alg"],
    ["check", "--close", "rs", "a.alg"],
    ["check", "a.alg", "--close", "xy"],
    ["dim", "a.alg", "--max-n", "two"],
    ["check", "a.alg", "--cap-atoms", "9"],
    ["relative", "a.alg"],
    ["space", "lambda-t", "a", "b", "--max-n", "2", "c"],
    ["space", "lambda-t", "a", "--max-n", "2", "b"],
    ["space", "rc"],
    ["product", "--close", "rs"],
    ["chec", "a.alg"],
    [],
], ids=" ".join)
def test_exact_reader_declines_other_spellings(argv):
    assert _exact_args(GRAMMAR, argv) is None
