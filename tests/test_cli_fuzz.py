"""Arbitrary input files through cli.main: every run must end with exit
0, 1 or 2 and print no traceback. Headers and set members draw huge and
negative integers as well as small ones, so the range checks must come
before any shift."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from contactalg import generate_topology
from contactalg.cli import main

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
