import time

import pytest

from contactalg import AXIOM_NAMES
from contactalg.cli import main, parse_algebra_file, parse_space_file

C6_TEXT = """\
# six-cycle, closed by hand
atoms: 6
contact: 0 1
contact: 1 2
contact: 2 3
contact: 3 4
contact: 4 5
contact: 5 0
"""

SIERPINSKI_TEXT = """\
points: 2
open: {1}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def algebra_path(tmp_path, text=C6_TEXT, name="a.alg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_cycle(tmp_path, capsys):
    path = algebra_path(tmp_path)
    code, out, err = run(capsys, "check", path, "--close", "rs")
    assert code == 1
    lines = out.splitlines()
    assert "PROP C1 PASS" in lines
    assert "PROP C5 FAIL witness={0},{2}" in lines
    assert "PROP LC3 FAIL witness={0}" in lines
    assert err == ""


def test_check_passes_overlap(tmp_path, capsys):
    text = "atoms: 2\ncontact: 0 0\ncontact: 1 1\n"
    code, out, _ = run(capsys, "check", algebra_path(tmp_path, text))
    assert code == 0
    assert all(" PASS" in line for line in out.splitlines())


def test_output_is_deterministic(tmp_path, capsys):
    path = algebra_path(tmp_path)
    _, first, _ = run(capsys, "check", path, "--close", "rs")
    _, second, _ = run(capsys, "check", path, "--close", "rs")
    assert first == second


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    bad = algebra_path(tmp_path, "atoms: 2\ncontact: 0 7\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 2
    assert "line 2" in err
    assert out == ""


def test_atom_cap(tmp_path, capsys):
    big = algebra_path(tmp_path, "atoms: 9\n")
    code, _, err = run(capsys, "check", big)
    assert code == 2 and "cap" in err
    code, out, err = run(capsys, "--cap-atoms", "9", "piweight", big)
    assert code == 0
    assert out.splitlines()[0] == "piw_a = 9"
    code, out, err = run(capsys, "--cap-atoms", "9", "check", big)
    assert code == 1
    assert "PROP C3 FAIL witness={0}" in out.splitlines()
    assert err == ""
    # the axioms are decided on atoms, so check answers past 10 atoms
    bigger = algebra_path(tmp_path, "atoms: 11\n", "bigger.alg")
    code, out, err = run(capsys, "--cap-atoms", "11", "check", bigger)
    assert code == 1
    assert "PROP C3 FAIL witness={0}" in out.splitlines()
    assert err == ""
    # the weight search behind the contact bundle still refuses 11 atoms
    code, out, err = run(capsys, "--cap-atoms", "11", "weight", bigger)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _ring_text(k: int) -> str:
    return f"atoms: {k}\n" + "".join(f"contact: {i} {(i + 1) % k}\n" for i in range(k))


@pytest.mark.parametrize(
    "k, transversal",
    [(12, "{0,3,6,9}"), (24, "{0,3,6,9,12,15,18,21}")],
)
def test_check_on_large_rings(tmp_path, capsys, k, transversal):
    """Every axiom is decided on the atoms, so check runs up to the
    24-atom algebra cap. C6's witness is the least set meeting every
    closed neighbourhood of the ring."""
    path = algebra_path(tmp_path, _ring_text(k), "ring.alg")
    code, out, err = run(capsys, "--cap-atoms", "24", "check", path, "--close", "rs")
    ends = f"{{0,1,{k - 1}}}"
    assert out.splitlines() == [
        "PROP C1 PASS",
        "PROP C2 PASS",
        "PROP C3 PASS",
        "PROP C4 PASS",
        "PROP C5 FAIL witness={0},{2}",
        f"PROP C6 FAIL witness={transversal}",
        "PROP LL1 PASS",
        "PROP LL2 PASS",
        "PROP LL2' PASS",
        "PROP LL3 PASS",
        "PROP LL4 PASS",
        "PROP LL4' PASS",
        f"PROP LL5 FAIL witness={{0}},{ends}",
        "PROP LL6 FAIL witness={0}",
        "PROP LL7 PASS",
        f"PROP LC1 FAIL witness={{0}},{ends}",
        "PROP LC2 PASS",
        "PROP LC3 FAIL witness={0}",
    ]
    assert code == 1
    assert err == ""


def test_main_runs_again_after_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as rejected:
        main(["check", "--close", "xy", "a.alg"])
    assert rejected.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid choice" in out.err
    code, out, err = run(capsys, "check", algebra_path(tmp_path), "--close", "rs")
    assert code == 1
    assert "PROP C5 FAIL witness={0},{2}" in out.splitlines()
    assert len(out.splitlines()) == len(AXIOM_NAMES) + 3
    assert err == ""


def test_no_implicit_closure(tmp_path):
    one_way = parse_algebra_file("atoms: 2\ncontact: 0 1\n")
    assert one_way.ca.contact.rows == (0b10, 0b00)
    closed = parse_algebra_file("atoms: 2\ncontact: 0 1\n", close="rs")
    assert closed.ca.contact.rows == (0b11, 0b11)


def test_bounded_header(tmp_path):
    L = parse_algebra_file("atoms: 3\nbounded: {0,2}\n")
    assert L.bounded_top.mask == 0b101


@pytest.mark.parametrize(
    "text, err",
    [
        ("atoms: 3\natoms: 3\n", "error: line 2: duplicate atoms: header\n"),
        ("atoms: 3\nbounded: {0}\nbounded: {1,2}\n", "error: line 3: duplicate bounded: line\n"),
    ],
    ids=["atoms", "bounded"],
)
def test_repeated_header_is_refused(tmp_path, capsys, text, err):
    assert run(capsys, "check", algebra_path(tmp_path, text)) == (2, "", err)


def test_line_endings_do_not_change_output(tmp_path, capsys):
    """CRLF, lone-CR and U+2028 files give the bytes of their LF twin."""
    text = C6_TEXT + "bounded: {0,1,2}\n"
    paths = []
    for i, newline in enumerate(("\n", "\r\n", "\r", "\u2028")):
        p = tmp_path / f"a{i}.alg"
        p.write_bytes(text.replace("\n", newline).encode("utf-8"))
        paths.append(str(p))
    for argv in (["check", "--close", "rs"], ["dim", "--close", "rs", "--max-n", "1"]):
        outs = [run(capsys, argv[0], p, *argv[1:]) for p in paths]
        assert outs[0][1] and all(out == outs[0] for out in outs), argv


def test_dim_subset_and_scan(tmp_path, capsys):
    path = algebra_path(tmp_path)
    subset = ";".join(
        ["{%d}" % i for i in range(6)]
        + ["{%d,%d}" % (i, (i + 1) % 6) for i in range(6)]
        + [
            "{0,1,2,3}",
            "{1,2,3,4}",
            "{2,3,4,5}",
            "{3,4,5,0}",
            "{4,5,0,1}",
            "{5,0,1,2}",
        ]
    )
    code, out, _ = run(
        capsys, "dim", path, "--close", "rs", "--max-n", "1", "--scan",
        "--subset", subset,
    )
    assert code == 1  # the monotonicity anomaly is a reported failure
    lines = out.splitlines()
    assert "dim_leq(0) = true" in lines
    assert "dim_a = 0" in lines
    assert any(line.startswith("PROP dim_monotone FAIL") for line in lines)


def test_dim_plain(tmp_path, capsys):
    path = algebra_path(tmp_path, "atoms: 2\ncontact: 0 0\ncontact: 1 1\n")
    code, out, _ = run(capsys, "dim", path)
    assert code == 0
    assert "dim_a = 0" in out.splitlines()


def test_weight_and_piweight(tmp_path, capsys):
    path = algebra_path(tmp_path)
    code, out, _ = run(capsys, "weight", path, "--close", "rs")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w_a = 8"
    assert lines[1].startswith("base = {} {0,1,2}")
    code, out, _ = run(capsys, "piweight", path, "--close", "rs")
    assert out.strip() == "piw_a = 6"


def test_product_roundtrip(tmp_path, capsys):
    a = algebra_path(tmp_path, "atoms: 1\ncontact: 0 0\n", "one.alg")
    b = algebra_path(tmp_path, "atoms: 2\ncontact: 0 0\ncontact: 1 1\nbounded: {0}\n", "two.alg")
    code, out, _ = run(capsys, "product", a, b)
    assert code == 0
    parsed = parse_algebra_file(out)
    assert parsed.algebra.atom_count == 3
    assert parsed.bounded_top.mask == 0b011  # {0} from the left, {0} of the right shifted
    # emitting the parsed algebra again reproduces the same body
    from contactalg.cli import algebra_file_text

    again = parse_algebra_file(algebra_file_text(parsed, "x"))
    assert again.ca.contact.rows == parsed.ca.contact.rows
    # element equality is scoped to one algebra instance, so compare masks
    assert again.bounded_top.mask == parsed.bounded_top.mask


def test_relative_roundtrip(tmp_path, capsys):
    path = algebra_path(tmp_path)
    code, out, _ = run(capsys, "relative", path, "--close", "rs", "--at", "{0,1,2}")
    assert code == 0
    parsed = parse_algebra_file(out)
    assert parsed.ca.contact.rows == (0b011, 0b111, 0b110)


def test_space_queries(tmp_path, capsys):
    sp = tmp_path / "s.space"
    sp.write_text(SIERPINSKI_TEXT)
    code, out, _ = run(capsys, "space", "rc", str(sp))
    assert code == 0
    assert out.splitlines() == ["RC atoms: 1", "RC sets: {} {0,1}"]
    code, out, _ = run(capsys, "space", "dim", str(sp))
    assert out.strip() == "dim_CL = 0"
    code, out, _ = run(capsys, "space", "connected", str(sp))
    assert out.strip() == "connected = true"
    code, out, _ = run(capsys, "space", "weight", str(sp))
    assert out.strip() == "w = 2"
    code, out, _ = run(capsys, "space", "piweight", str(sp))
    assert out.strip() == "piw = 1"


def test_space_rejects_open_family(tmp_path, capsys):
    sp = tmp_path / "bad.space"
    sp.write_text("points: 3\nopen: {0}\nopen: {1}\n")  # union {0,1} missing
    code, _, err = run(capsys, "space", "rc", str(sp))
    assert code == 2
    assert "union" in err or "closed" in err


def test_lambda_t_command(tmp_path, capsys):
    src = tmp_path / "d2.space"
    src.write_text("points: 2\nopen: {0}\nopen: {1}\n")
    mp = tmp_path / "collapse.map"
    mp.write_text("points: 1\nmap: 0 0\nmap: 1 0\n")
    code, out, _ = run(capsys, "space", "lambda-t", str(src), str(mp))
    assert code == 0
    assert out.splitlines() == [
        "lambda_t: {} -> {}",
        "lambda_t: {0} -> {0,1}",
    ]


def test_lambda_t_needs_total_map(tmp_path, capsys):
    src = tmp_path / "d2.space"
    src.write_text("points: 2\nopen: {0}\nopen: {1}\n")
    mp = tmp_path / "partial.map"
    mp.write_text("points: 1\nmap: 0 0\n")
    code, _, err = run(capsys, "space", "lambda-t", str(src), str(mp))
    assert code == 2
    assert "unmapped" in err


def test_search_table(capsys):
    code, out, _ = run(capsys, "search", "--atoms", "2")
    assert code == 0
    assert out.splitlines() == [
        "atoms=1 rel=1 bundles=PCA,CA,ECA,NCA connected=yes dim_a=0 w_a=2",
        "atoms=2 rel=1001 bundles=PCA,CA,ECA,NCA connected=no dim_a=0 w_a=4",
        "atoms=2 rel=1111 bundles=PCA,CA connected=yes dim_a=0 w_a=2",
    ]


def test_search_all_relations(capsys):
    code, out, _ = run(capsys, "search", "--atoms", "1", "--contact-class", "all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2  # empty and reflexive relation on one atom
    assert "w_a=-" in lines[0]


def test_search_all_relations_refuses_five_atoms(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--atoms", "5", "--contact-class", "all")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: search --contact-class all supports --atoms 1..4\n"


def test_search_refuses_seven_atoms(capsys):
    code, out, err = run(capsys, "search", "--atoms", "7")
    assert code == 2
    assert out == ""
    assert err == "error: search supports --atoms 1..6\n"


@pytest.mark.parametrize(
    "argv, counts",
    [
        # graphs on k vertices (OEIS A000088) and digraphs with loops (A000595)
        (["--atoms", "6"], [1, 2, 4, 11, 34, 156]),
        (["--atoms", "4", "--contact-class", "all"], [2, 10, 104, 3044]),
    ],
)
def test_search_class_counts_within_budget(capsys, argv, counts):
    start = time.perf_counter()
    code, out, _ = run(capsys, "search", *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    lines = out.splitlines()
    assert [sum(line.startswith(f"atoms={k} ") for line in lines) for k in range(1, len(counts) + 1)] == counts
    assert len(lines) == sum(counts)


def test_crosscheck(tmp_path, capsys):
    sp = tmp_path / "s.space"
    sp.write_text("points: 4\nopen: {0}\nopen: {1}\nopen: {0,1}\nopen: {0,1,2}\nopen: {0,1,3}\n")
    code, out, _ = run(capsys, "crosscheck", str(sp))
    assert code == 0
    assert all(line.endswith("PASS") for line in out.splitlines())
    assert len(out.splitlines()) == 7


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.alg")
    assert code == 2
    assert "cannot read" in err


def test_huge_set_member_is_refused_before_shifting(tmp_path, capsys):
    # 1 << 100000000000 would need about 12 GB; the range check comes first
    huge = "{100000000000}"
    path = algebra_path(tmp_path)
    bounded = algebra_path(tmp_path, f"atoms: 2\nbounded: {huge}\n", "b.alg")
    space = tmp_path / "s.space"
    space.write_text(f"points: 2\nopen: {huge}\n")
    start = time.perf_counter()
    for argv in (
        ["dim", path, "--subset", huge],
        ["relative", path, "--at", huge],
        ["check", bounded],
        ["space", "rc", str(space)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and "out of range" in err
    assert time.perf_counter() - start < 5


def test_oversized_points_header_is_refused_before_shifting(tmp_path, capsys):
    # 1 << 100000000000 would need about 12.5 GB; the cap comes first
    space = tmp_path / "big.space"
    space.write_text("points: 100000000000\n")
    start = time.perf_counter()
    for argv in (["space", "weight", str(space)], ["crosscheck", str(space)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: line 1: point count 100000000000 exceeds the cap 5\n"
    assert time.perf_counter() - start < 5
    space.write_text("points: 6\n")
    code, _, err = run(capsys, "space", "rc", str(space))
    assert code == 2 and "exceeds the cap 5" in err


def test_non_utf8_file_is_refused(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"atoms: 2\n\xff\xfe\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read") and "not UTF-8 text" in err


def test_negative_dimension_cap_is_refused(tmp_path, capsys):
    space = algebra_path(tmp_path, SIERPINSKI_TEXT, "s.space")
    for argv in (
        ["dim", algebra_path(tmp_path), "--max-n", "-3"],
        ["search", "--atoms", "2", "--max-n", "-3"],
        ["space", "dim", space, "--max-n", "-3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: dimension cap must be at least -1, got -3\n"
    code, out, err = run(capsys, "dim", algebra_path(tmp_path), "--max-n", "-1")
    assert code == 0
    assert out.splitlines() == ["dim_leq(-1) = false", "dim_a = >-1"]
    code, out, err = run(capsys, "space", "dim", space, "--max-n", "-1")
    assert (code, out) == (0, "dim_CL = >-1\n")


def test_internal_error_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    from contactalg import topology

    # an isomorphism check that rejects the closure map of the regular open build
    monkeypatch.setattr(topology, "is_ca_isomorphism", lambda *args: False)
    code, out, err = run(capsys, "space", "ro", algebra_path(tmp_path, SIERPINSKI_TEXT, "s.space"))
    assert code == 3
    assert out == ""
    assert err == "internal error: closure map is not an isomorphism of contact algebras\n"
