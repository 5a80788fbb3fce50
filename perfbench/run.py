"""regolith benchmark: run one bundled-scenario workload end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its `src/`.  Every scenario run happens in a
fresh process (`child.py`), one at a time, closed-loop: the next run starts
when the previous one has ended.  All processes share one CPU.  Runs repeat
until the next one would end after S seconds (at least one run).  The seed
is the scenario seed, so the same seed gives the same terrain and the same
run.

--trace 0 reports the end-to-end metrics (medians over the runs):
  wall_s       host seconds of the whole `regolith.runner.run()` call
  rtf          simulated seconds per host second, sim_time / wall_s
  setup_s      seconds from process start to the call into run(), the
               median of three set-up-only processes plus every run
  peak_rss_mb  peak resident memory of the simulator process
--trace 1 alternates an untraced and a traced run and reports the traced
run's per-layer self times and counts (see layers.py), plus the tracing
overhead.  Workloads, held-out seeds and what each layer metric should move
are described in README.md next to this file.

Every run is checked: it completes, does not deadlock, reports no error,
closes its mass balance below 1e-4 and has no bus errors.  Its statistics
(sim time, cycles, steps, ticks, sample rows, CSV digests, ...) must equal
those of every other run of the same scenario, seed and code, in this
process and in earlier ones (kept in .perfbench/ledger.json), and in either
transport.  A run failing any check counts as failed.  A run still going at
the deadline is killed and counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LEDGER = WORK / "ledger.json"

#: name -> (bundled scenario, transport, needs a loopback reference run).
#: Why each was chosen, and the layers it stresses, is in README.md.
WORKLOADS = {
    "flat-loopback": ("scenario1_flat", "loopback", False),
    "smoke-tcp": ("scenario2_smoke", "tcp", True),
}

#: Seeds kept out of tuning, for checking a claim made on other seeds.
HELD_OUT_SEEDS = {"scenario1_flat": 101, "scenario2_smoke": 101}

END_TO_END_UNITS = {"wall_s": "s", "rtf": "sim_s/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

SETUP_PROBES = 3
MAX_CLOSURE = 1e-4
#: Whole-process budget: no run starts that could not end before this.
HARD_LIMIT_S = 165.0
#: Statistics that depend on the transport, compared per transport only.
TRANSPORT_STATS = ("envelopes", "wire_bytes", "bus_dropped",
                   "decode_errors")


def spawn(args: list, deadline_s: float):
    """Run child.py with args in a fresh process, in its own scratch
    directory; returns (spawn time, result dict or None, problem or None)."""
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result_path = scratch / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), *args,
           "--out", str(scratch / "out"), "--result", str(result_path)]
    result = problem = None
    try:
        with open(scratch / "log.txt", "wb") as log:
            spawn_time = time.time()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(deadline_s, 1.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(proc)
        if code is None:
            problem = f"killed at the {deadline_s:.0f} s deadline"
        elif code != 0:
            tail = (scratch / "log.txt").read_text(errors="replace")
            problem = f"exit code {code}: {tail[-400:].strip()}"
        else:
            result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return spawn_time, result, problem


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:     # e.g. the TCP planner child
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "regolith").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions,
            "git_sha": _git_sha(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def check_run(result: dict) -> list:
    """Problems with one run's outcome; empty when it passes."""
    problems = []
    if not result["complete"]:
        problems.append("did not complete")
    if result["deadlocked"]:
        problems.append("deadlocked")
    if result["error"] is not None:
        problems.append(f"error: {result['error']}")
    closure = result["stats"]["mass_closure_error"]
    if not closure < MAX_CLOSURE:
        problems.append(f"mass closure {closure!r} >= {MAX_CLOSURE}")
    if result["bus_errors"] != 0:
        problems.append(f"{result['bus_errors']} bus errors")
    missing = [n for n in ("cycles.csv", "samples.csv", "events.csv")
               if f"sha256.{n}" not in result["stats"]]
    if missing:
        problems.append(f"missing artifacts {missing}")
    return problems


def agree(entry: dict, stats: dict, mode: str) -> list:
    """Merge one run's statistics into the ledger entry for its scenario
    and seed; returns every statistic that differs from an earlier run."""
    mismatches = []
    for key, value in stats.items():
        if key in TRANSPORT_STATS:
            key = f"{mode}.{key}"
        if key in entry and entry[key] != value:
            mismatches.append(f"{key}: {value!r} != {entry[key]!r}")
        else:
            entry[key] = value
    return mismatches


def _summary(values: list) -> dict:
    values = sorted(values)
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": values[0], "max": values[-1]}


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "regolith" / "runner.py").is_file():
        print(f"perfbench: no regolith sources under {SRC}",
              file=sys.stderr)
        return 2
    begin = time.monotonic()
    if hasattr(os, "sched_setaffinity"):
        # Every run, and in TCP mode its planner child, shares one CPU.
        # Lockstep never runs the two processes at once, and leaving them
        # to the scheduler made TCP run times bimodal: about 7.4 s on a
        # shared CPU against 9.3 s on two, for the same smoke run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scenario, mode, reference = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    entry = ledger.setdefault(f"{_code_digest()}:{scenario}:{args.seed}", {})

    runs = []                      # one record per scenario run
    setup_samples = []
    overheads = []                 # traced minus untraced wall_s, per pair
    attempted = failed = 0

    def left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - begin)

    def scenario_run(run_mode: str, traced: bool) -> dict:
        nonlocal attempted, failed
        spawn_time, res, problem = spawn(
            ["--scenario", scenario, "--mode", run_mode,
             "--seed", str(args.seed)] + (["--trace"] if traced else []),
            left())
        attempted += 1
        record = {"mode": run_mode, "traced": traced}
        if res is None:
            record["problems"] = [problem]
        else:
            record.update(
                setup_s=res["call_time"] - spawn_time,
                wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"],
                rtf=res["stats"]["sim_time"] / res["wall_s"],
                stats=res["stats"], layers=res.get("layers"))
            record["problems"] = (check_run(res)
                                  + agree(entry, res["stats"], run_mode))
        failed += bool(record["problems"])
        runs.append(record)
        return record

    def setup_probe() -> float:
        spawn_time, res, problem = spawn(
            ["--scenario", scenario, "--mode", mode, "--seed",
             str(args.seed), "--setup-only"], min(left(), 60.0))
        if res is None:
            raise SystemExit(f"perfbench: set-up failed: {problem}")
        return res["call_time"] - spawn_time

    try:
        setup_probe()              # fills the bytecode and file caches
        setup_samples += [setup_probe() for _ in range(SETUP_PROBES)]
        if reference:
            scenario_run("loopback", traced=False)
        while True:
            unit_start = time.monotonic()
            record = scenario_run(mode, traced=False)
            if "setup_s" in record:
                setup_samples.append(record["setup_s"])
            if args.trace:
                traced_record = scenario_run(mode, traced=True)
                if "wall_s" in record and "wall_s" in traced_record:
                    overheads.append(traced_record["wall_s"]
                                     - record["wall_s"])
            unit_s = time.monotonic() - unit_start
            elapsed = time.monotonic() - begin
            if elapsed + unit_s > args.seconds or unit_s > left():
                break
    finally:
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(LEDGER)

    timed = [r for r in runs if "wall_s" in r and r["mode"] == mode]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (args.trace and not traced):
        for r in runs:
            if r["problems"]:
                print(f"run {r['mode']}: {'; '.join(r['problems'])}",
                      file=sys.stderr)
        return 1

    summaries = {
        "wall_s": _summary([r["wall_s"] for r in plain]),
        "rtf": _summary([r["rtf"] for r in plain]),
        "setup_s": _summary(setup_samples),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in plain]),
    }
    units = dict(END_TO_END_UNITS)
    if args.trace:
        names = list(traced[0]["layers"])
        layer_values = {n: [r["layers"][n] for r in traced] for n in names}
        layer_values["trace.wall_s"] = [r["wall_s"] for r in traced]
        layer_values["trace.overhead_s"] = overheads or [0.0]
        reported = {n: _summary(v) for n, v in layer_values.items()}
        units = {n: _layer_unit(n) for n in reported}
    else:
        reported = summaries

    print(f"workload {args.workload} ({scenario}, {mode}), seed {args.seed},"
          f" {len(plain)} untraced and {len(traced)} traced runs")
    for name, s in reported.items():
        print(f"  {name:34s} {s['median']:14.6g} {units[name]:6s} "
              f"median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}")
    for r in runs:
        if r["problems"]:
            print(f"  FAILED {r['mode']} run: {'; '.join(r['problems'])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": s["median"], "unit": units[n]}
                    for n, s in reported.items()},
    }
    record = {"workload": args.workload, "scenario": scenario, "mode": mode,
              "seed": args.seed, "held_out_seed": HELD_OUT_SEEDS[scenario],
              "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(),
              "end_to_end": summaries, "runs": runs, "result": result}
    if args.trace:
        record["per_layer"] = reported
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
