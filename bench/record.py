"""Record the expected output of every input a workload can draw.

    python3 bench/record.py --workload NAME

Runs each spec of each stream once, in-process, through the worker's
job runner, and writes bench/expected/NAME.json: per stream, a digest
of the specs and the digest of each spec's canonical output (stdout and
exit code for CLI jobs, one result line for library jobs). Run it on the
code whose outputs are the reference; a later change must reproduce
them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import BENCH_DIR, digest, program_present, spec_digest
from run import check_fact, input_dir, materialize
from workloads import WORKLOADS
from worker import Clock, execute, import_program


def record(name: str) -> tuple[dict, int]:
    C = import_program()
    wl = WORKLOADS[name]()
    in_dir = input_dir(name)
    shutil.rmtree(in_dir.parent, ignore_errors=True)
    in_dir.mkdir(parents=True)
    table, problems = {}, 0
    try:
        for stream, specs in wl.streams.items():
            t0 = time.perf_counter()
            digests = []
            for i, spec in enumerate(specs):
                text, code, error = execute(C, materialize(spec, in_dir), Clock())
                if error is not None or code not in (0, 1):
                    print(f"  {stream}[{i}]: {error or f'exit {code}'}", file=sys.stderr)
                    problems += 1
                elif "fact" in spec and not check_fact(spec, text):
                    print(f"  {stream}[{i}]: fact {spec['fact']} fails", file=sys.stderr)
                    problems += 1
                digests.append(digest(text))
            table[stream] = {"inputs": spec_digest(specs), "digests": digests}
            print(f"{name}/{stream}: {len(specs)} specs in {time.perf_counter() - t0:.1f} s",
                  flush=True)
    finally:
        shutil.rmtree(in_dir.parent, ignore_errors=True)
    return table, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    args = ap.parse_args(argv)
    if not program_present():
        print("error: src/contactalg not found", file=sys.stderr)
        return 2
    table, problems = record(args.workload)
    path = BENCH_DIR / "expected" / f"{args.workload}.json"
    if problems:
        print(f"error: {problems} inputs failed; nothing written", file=sys.stderr)
        return 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
