"""Byte-level pin of the topology subcommands.

Runs `space rc`, `space ro`, `space piweight`, `space connected` and
`crosscheck` through cli.main in-process on every labelled space of at
most four points, and compares one sha256 digest of every exit code and
stdout against the digest recorded before the RC/RO build moved onto the
minimal neighbourhoods. A change to any byte of any of those outputs
changes the digest.
"""

import hashlib

from contactalg import enumerate_topologies
from contactalg.cli import main

GOLDEN_SHA256 = "c90a084fe3706ee6855617ef1300363a749f333c4b24f00b2ea3774aaa1077a5"

QUERIES = (
    ("space", "rc"),
    ("space", "ro"),
    ("space", "piweight"),
    ("space", "connected"),
    ("crosscheck",),
)


def _space_text(X) -> str:
    lines = [f"points: {X.point_count}"]
    for u in sorted(X.opens):
        if u:
            members = ",".join(str(p) for p in sorted(X.points(u)))
            lines.append(f"open: {{{members}}}")
    return "\n".join(lines) + "\n"


def test_topology_subcommands_print_the_recorded_bytes(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "x.space"
    count = 0
    for n in range(5):
        for X in enumerate_topologies(n):
            path.write_text(_space_text(X))
            for query in QUERIES:
                code = main([*query, str(path)])
                out = capsys.readouterr().out
                digest.update(f"{' '.join(query)} {sorted(X.opens)}\n{code}\n{out}".encode())
            count += 1
    assert count == 1 + 1 + 4 + 29 + 355
    assert digest.hexdigest() == GOLDEN_SHA256
