"""Benchmark worker: one fresh process per run, one job at a time.

    python3 bench/worker.py --probe
    python3 bench/worker.py --jobs FILE --out FILE --seconds S [--trace] [--limit N]

It imports the program, prints "ready" (the harness times set-up up to
that line), runs the jobs as a closed loop until the deadline has passed
at a block end, and writes one JSON result file. `--probe` stops after
"ready". `--limit N` runs exactly the first N jobs with no deadline.
With `--trace` the spans go beside the --out file, as `<stem>.spans.jsonl`,
one JSON list a line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from common import SRC_DIR, calibration_loop, digest


class Clock:
    """Times the program's part of a job and scopes the tracer to it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.job = -1
        self.elapsed = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.start_job(self.job)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end_job()
        return False


def run_cli(C, spec, clock):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with clock:
            try:
                code = C.cli.main(spec["argv"])
            except SystemExit as e:  # argparse rejects with SystemExit(2)
                code = e.code if isinstance(e.code, int) else 2
    return f"{out.getvalue()}\0rc={code}", code


def _masks(elements) -> str:
    return ",".join(str(x.mask) for x in elements)


CENSUS_AXIOMS = ("C1", "C2", "C3", "C4", "C5", "C6")


def run_census(C, spec, clock):
    """The per-relation tabulation of `contactalg search`, through the library."""
    k, rows = spec["k"], spec["rows"]
    with clock:
        alg = C.powerset_algebra(k)
        ca = C.ContactAlgebra(alg, C.ContactStructure(alg, rows))
        reports = {name: C.check_axiom(ca, name) for name in CENSUS_AXIOMS}
        ok = {name: report.ok for name, report in reports.items()}
        contact = ok["C1"] and ok["C2"] and ok["C3"] and ok["C4"]
        bundles = [name for name, holds in (
            ("PCA", ok["C1"] and ok["C2"]), ("CA", contact),
            ("ECA", contact and ok["C6"]), ("NCA", contact and ok["C5"] and ok["C6"]))
            if holds]
        connected = C.is_connected(ca)
        dim = C.dim_a(C.query(ca, None, 1))
        weight = C.algebra_weight(C.LocalContactAlgebra(ca, alg.one)) if contact else None
    fails = [f"{name}:{_masks(report.witness)}" for name, report in reports.items()
             if not report.ok]
    verdicts = ",".join(f"{n}{'T' if v else 'F'}" for n, v in dim.verdicts)
    w = "-" if weight is None else f"{weight.size}:{_masks(weight.base)}"
    line = (f"k={k} rows={','.join(map(str, rows))} bundles={','.join(bundles) or '-'} "
            f"fails={';'.join(fails) or '-'} connected={connected} dim_a={dim.display} "
            f"verdicts={verdicts} w_a={w}")
    return line, 0


def run_battery(C, spec, clock):
    """The crosscheck battery on one labelled finite space."""
    n, opens = spec["n"], spec["opens"]
    with clock:
        X = C.FiniteSpace(n, opens)
        rc = C.rc_algebra(X)
        ro = C.ro_algebra(X)
        d = C.dim_cl(X)
        w = C.weight_of_space(X)
        pw = C.pi_weight_of_space(X)
        connected = C.is_connected_space(X)
        pisr = C.is_pi_semiregular(X)
        table = C.lambda_t_map(C.ContinuousMap.identity(X), rc, rc)
        da = C.dim_a(C.query(rc.ca, None, 1)).value if X.is_discrete else None
    line = (f"n={n} rc={','.join(map(str, rc.regular_closed_sets()))} "
            f"ro={','.join(map(str, ro.regular_open_sets()))} dim_cl={d} w={w} piw={pw} "
            f"connected={connected} pisr={pisr} lt={','.join(map(str, table.mapping))} "
            f"dim_a={da}")
    return line, 0


def run_enum(C, spec, clock):
    with clock:
        spaces = list(C.enumerate_topologies(spec["n"]))
    families = sorted(tuple(sorted(X.opens)) for X in spaces)
    return f"n={spec['n']} count={len(spaces)} families={digest(repr(families))}", 0


def run_rs_count(C, spec, clock):
    with clock:
        count = sum(1 for _ in C.all_contact_structures(C.powerset_algebra(spec["k"])))
    return f"k={spec['k']} count={count}", 0


RUNNERS = {
    "cli": run_cli,
    "census": run_census,
    "battery": run_battery,
    "enum": run_enum,
    "rs_count": run_rs_count,
}


def execute(C, spec, clock):
    """Run one job; returns (output text, exit code, error or None)."""
    try:
        text, code = RUNNERS[spec["kind"]](C, spec, clock)
        return text, code, None
    except Exception as e:  # a crashing job is a failed job, not a crashed run
        return "", -1, f"{type(e).__name__}: {e}"


def spans_path(out: str) -> str:
    """Where a traced worker writing its result to out writes its spans."""
    return str(Path(out).with_suffix(".spans.jsonl"))


def import_program():
    sys.path.insert(0, str(SRC_DIR))
    import contactalg
    import contactalg.cli  # noqa: F401  (set-up includes the CLI module)

    return contactalg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--jobs")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    C = import_program()
    print("ready", flush=True)
    if args.probe:
        return 0

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    if args.limit is not None:
        jobs = jobs[: args.limit]
    calibration_start = calibration_loop()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = Clock(tracer)
    results = []
    start = time.perf_counter()
    deadline = start + args.seconds
    for i, job in enumerate(jobs):
        clock.job = i
        text, code, error = execute(C, job["spec"], clock)
        results.append([clock.elapsed, text if job.get("keep") else None,
                        code, error, digest(text)])
        if args.limit is None and job["end"] and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    calibration_end = calibration_loop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "wall_s": wall,
        "jobs": results,
        "peak_rss_mb": peak_kb / 1024.0,
        "calibration_s": [calibration_start, calibration_end],
    }
    if tracer is not None:
        from tracer import summarize

        record["layers"] = summarize(tracer.spans, wall)
        record["span_count"] = len(tracer.spans)
        with open(spans_path(args.out), "w", encoding="utf-8") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
