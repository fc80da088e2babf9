"""contactalg benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Generates the run's inputs from the seed (bench/workloads.py), starts
one fresh worker process (bench/worker.py) that runs them one at a time
in a closed loop, checks every job's output against the table recorded
from the seed code (bench/expected/) and against facts that do not
depend on the code, and prints the metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, measured with the
program unmodified. With --trace 1 a traced worker gives the per-layer
metrics, and an untraced worker then repeats the same jobs to give
trace_overhead. Exit code 2 means the program or a recorded table is
missing, 3 that a worker failed; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from common import (BENCH_DIR, OUT_DIR, ROOT, digest, loadavg, machine, program_present,
                    spec_digest)
from worker import spans_path
import workloads

WORKLOADS = workloads.WORKLOADS
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150.0
HARD_LIMIT_S = 175.0


class BenchError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def input_dir(name: str):
    """Where a workload's input files go. `product` and `relative` print
    their input paths, so recording and runs must use the same ones."""
    return OUT_DIR / f"run-{name}" / "in"


def materialize(spec: dict, in_dir) -> dict:
    """The spec a worker runs: a CLI job's files written out, named by
    their content, and its args turned into an argv of paths relative to
    the checkout."""
    spec = dict(spec)
    if spec["kind"] == "cli":
        paths = {}
        for tag, text in spec.pop("files").items():
            path = in_dir / f"{digest(text)}.alg"
            path.write_text(text, encoding="utf-8")
            paths["@" + tag] = os.path.relpath(path, ROOT)
        spec["argv"] = [paths.get(a, a) for a in spec.pop("args")]
    return spec


def load_expected(wl) -> dict[str, str | None]:
    """Recorded digests per stream; None for a stream whose inputs changed."""
    path = BENCH_DIR / "expected" / f"{wl.name}.json"
    if not path.is_file():
        raise BenchError(f"no recorded outputs at {path} (run bench/record.py)", 2)
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    out = {}
    for name, specs in wl.streams.items():
        entry = table.get(name)
        ok = entry is not None and entry["inputs"] == spec_digest(specs)
        out[name] = entry["digests"] if ok else None
    return out


def start_worker(args: list[str], deadline: float):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise BenchError(f"worker did not start (exit {proc.returncode})", 3)
        return proc, ready
    except BaseException:
        _stop(proc)
        raise


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def finish_worker(proc, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded its time limit", 3) from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}", 3)


def setup_probe(deadline: float) -> float:
    proc, ready = start_worker(["--probe"], deadline)
    finish_worker(proc, deadline)
    return ready


def run_worker(run_dir, seconds: float, deadline: float, trace: bool = False,
               limit: int | None = None):
    out = run_dir / ("trace.json" if trace else f"result{limit or ''}.json")
    args = ["--jobs", str(run_dir / "jobs.json"), "--out", str(out), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    if limit is not None:
        args += ["--limit", str(limit)]
    proc, ready = start_worker(args, deadline)
    finish_worker(proc, min(deadline, time.monotonic() + WORKER_TIMEOUT_S))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), ready


# -- correctness --


def check_fact(spec: dict, text: str) -> bool:
    """Facts that hold whatever the code under test computes."""
    fact = spec["fact"]
    if fact == "dim0":
        return "dim_a = 0\n" in text or " dim_a=0 " in text
    if fact == "search_rows":
        # Graphs on 1..k vertices up to isomorphism, OEIS A000088.
        k = int(spec["args"][spec["args"].index("--atoms") + 1])
        lines = [ln for ln in text.split("\0")[0].splitlines() if ln]
        per_k = [sum(ln.startswith(f"atoms={j} ") for ln in lines) for j in range(1, k + 1)]
        return per_k == list(workloads.GRAPHS_UP_TO_ISO[1:k + 1]) and len(lines) == sum(per_k)
    if fact.startswith("count="):
        return fact in text.split()
    if fact == "discrete":
        return " dim_cl=0 " in text and text.endswith(" dim_a=0")
    raise ValueError(f"unknown fact {fact!r}")


def check_results(plan, results, expected) -> tuple[int, list[str]]:
    failed, notes = 0, []
    for job, (elapsed, text, code, error, dig) in zip(plan, results):
        spec = job["spec"]
        reason = None
        if error is not None:
            reason = error
        elif code not in (0, 1):
            reason = f"exit code {code}"
        else:
            digests = expected.get(job["stream"])
            want = None if digests is None else digests[job["idx"]]
            if want is None:
                reason = "no recorded output for this input"
            elif dig != want:
                reason = "output differs from the recorded one"
            elif "fact" in spec and not check_fact(spec, text or ""):
                reason = f"fact {spec['fact']} does not hold"
        if reason is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{job['stream']}[{job['idx']}]: {reason}")
    return failed, notes


# -- metrics --


def latency_metrics(results) -> tuple[dict, dict]:
    lat_ms = sorted(r[0] * 1000.0 for r in results)
    n = len(lat_ms)
    p50 = statistics.median(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if n > 1 else lat_ms[0]
    beyond = sum(x > p90 for x in lat_ms)
    return {"job_p50_ms": p50, "job_p90_ms": p90}, {"jobs": n, "beyond_p90": beyond}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    wl = WORKLOADS[name]()
    expected = load_expected(wl)
    plan, limiting = wl.plan(seed)
    in_dir = input_dir(name)
    run_dir = in_dir.parent
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = []
    try:
        in_dir.mkdir(parents=True)
        jobs = [{"spec": materialize(job["spec"], in_dir), "end": job["end"],
                 "keep": "fact" in job["spec"]} for job in plan]
        with open(run_dir / "jobs.json", "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        drift = {"machine": machine(), "loadavg_start": loadavg()}
        if not trace:
            setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
            result, ready = run_worker(run_dir, seconds, deadline)
            setups.append(ready)
            done = result["jobs"]
            failed, notes = check_results(plan, done, expected)
            lat, counts = latency_metrics(done)
            values = {
                "jobs_per_s": len(done) / result["wall_s"],
                "job_p50_ms": lat["job_p50_ms"],
                "job_p90_ms": lat["job_p90_ms"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            extra = {"fail_ratio": (failed / len(done), "ratio"),
                     "wall_s": (result["wall_s"], "s"),
                     "p90_samples": (f"{counts['jobs']} jobs, {counts['beyond_p90']} beyond p90", ""),
                     "setup_samples_s": (", ".join(f"{s:.4f}" for s in setups), "")}
            calib = result["calibration_s"]
            attempted = len(done)
            wall = result["wall_s"]
        else:
            spans = OUT_DIR / f"spans-{name}.jsonl"
            traced, _ = run_worker(run_dir, seconds, deadline, trace=True)
            os.replace(spans_path(str(run_dir / "trace.json")), spans)
            done = traced["jobs"]
            wall = traced["wall_s"]
            plain, _ = run_worker(run_dir, seconds, deadline, limit=len(done))
            failed, notes = check_results(plan, done, expected)
            failed_plain, notes_plain = check_results(plan, plain["jobs"], expected)
            failed += failed_plain
            notes += notes_plain
            values = dict(traced["layers"])
            values["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
            extra = {"traced_jobs": (len(done), "jobs"), "span_count": (traced["span_count"], ""),
                     "spans_file": (os.path.relpath(spans, ROOT), "")}
            calib = traced["calibration_s"] + plain["calibration_s"]
            attempted = len(done) + len(plain["jobs"])
        units = declared_units(trace)
        if set(values) != set(units):
            raise BenchError("measured metrics differ from those BENCHMARK.json declares: "
                             + ", ".join(sorted(set(values) ^ set(units))), 2)
        metrics = {k: (values[k], unit) for k, unit in units.items()}
        drift["loadavg_end"] = loadavg()
        drift["calibration_s"] = calib
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines.append(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    if len(done) == len(plan):
        extra["ended_early"] = (
            f"after {wall:.1f} s: stream {limiting} was used up after "
            f"{wl.capacity()} blocks; the run holds every block the workload has", "")
    for key, (value, unit) in {**metrics, **extra}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {key:44s} {shown} {unit}".rstrip())
    m = drift["machine"]
    lines.append(f"  python {m['python']}  nproc {m['nproc']}  "
                 f"loadavg {drift['loadavg_start']} -> {drift['loadavg_end']}")
    lines.append("  calibration loop s: " + ", ".join(f"{c:.4f}" for c in calib))
    for note in notes:
        lines.append(f"  FAIL {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "drift": drift, "result": result,
              "extra": {k: v for k, (v, _) in extra.items()}}
    with open(OUT_DIR / f"last-{name}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="contactalg benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print("error: the program's sources (src/contactalg) are not in this checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            combined[name] = result
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    if len(names) == 1:
        print(json.dumps(combined[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in combined.values()),
            "attempted": sum(r["attempted"] for r in combined.values()),
            "failed": sum(r["failed"] for r in combined.values()),
            "metrics": {f"{n}/{k}": v for n, r in combined.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
