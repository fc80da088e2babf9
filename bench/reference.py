"""Time the rows of the ROADMAP baseline table once each.

    python3 bench/reference.py

writes bench/results/reference.json.

These are single, ungated wall-clock runs on 8-atom and overlap inputs
that are too slow for the gated workloads. The file records the machine
and the calibration loop beside them, so the numbers can be read
against the gated results taken on the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

from common import (BENCH_DIR, OUT_DIR, SRC_DIR, calibration_loop, digest, loadavg, machine,
                    program_present)

ROWS = [
    # (name, roadmap seconds, kind, argument)
    ("check ring8", 12.5, "cli", ["check", "{ring8}", "--close", "rs"]),
    ("weight ring8", 7.9, "cli", ["weight", "{ring8}", "--close", "rs"]),
    ("dim_leq overlap6 n=1", 41.0, "overlap", (6, 1)),
    ("dim_leq overlap8 n=0", 15.0, "overlap", (8, 0)),
    ("search --atoms 5", 2.6, "cli", ["search", "--atoms", "5"]),
    ("search --atoms 4 --contact-class all", 41.0, "cli",
     ["search", "--atoms", "4", "--contact-class", "all"]),
]

RING8 = "atoms: 8\n" + "".join(f"contact: {i} {(i + 1) % 8}\n" for i in range(8))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    if not program_present():
        print("error: src/contactalg not found next to bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import contactalg
    import contactalg.cli

    work = OUT_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    ring8 = work / "ring8.alg"
    ring8.write_text(RING8, encoding="utf-8")

    record = {"machine": machine(), "loadavg_start": loadavg(),
              "calibration_s_start": calibration_loop(), "rows": []}
    for name, roadmap_s, kind, arg in ROWS:
        if kind == "cli":
            argv_ = [a.replace("{ring8}", str(ring8)) for a in arg]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = contactalg.cli.main(argv_)
            elapsed = time.perf_counter() - t0
            out = f"{buf.getvalue()}\0rc={code}"
        else:
            k, n = arg
            alg = contactalg.powerset_algebra(k)
            ca = contactalg.ContactAlgebra(alg, contactalg.extremal_relation(alg, "smallest"))
            t0 = time.perf_counter()
            verdict = contactalg.dim_leq(contactalg.query(ca, None, n), n)
            elapsed = time.perf_counter() - t0
            out = f"holds={verdict.holds}"
        row = {"name": name, "roadmap_s": roadmap_s, "measured_s": round(elapsed, 3),
               "output_digest": digest(out)}
        record["rows"].append(row)
        print(f"{name:40s} roadmap {roadmap_s:6.1f} s   measured {elapsed:7.2f} s", flush=True)
    record["calibration_s_end"] = calibration_loop()
    record["loadavg_end"] = loadavg()
    with open(BENCH_DIR / "results" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
