"""Benchmark of the macrofield CLI: closed-loop workloads, one client.

    python3 bench/run.py --workload dense-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. Each job is a `python -m macrofield ...`
process with PYTHONPATH=<root>/src, started only after the previous one
exited; its report is checked against a closed form (jobs.py). One pass runs
every job of the workload once.

--trace 0 runs whole passes while the next one is expected to end within
--seconds (at least one) and reports the end-to-end metrics, medians over
the passes: wall_s, cpu_s (user + system of the job processes, from wait4),
peak_rss_mb (largest job peak RSS in a pass) and setup_s (median cold start
of `python -m macrofield --version` over several starts).

--trace 1 runs one untraced pass for the per-command metrics, one traced
in-process replay for the per-layer metrics (replay.py), checks that the
replay reproduces the CLI records within 1e-12, and runs one job twice with
--no-timestamp to check that its report bytes are stable.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. A full record, with the machine facts, goes to
bench/out/. The benchmark sets no thread variables of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import jobs as jobs_mod  # noqa: E402

SETUP_STARTS = 5
RUN_DEADLINE_S = 165.0  # every job is killed by then, so a run ends within 180 s
TRACE_TOL = 1e-12


def _job_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # the job exited just before its deadline
        pass


class Runner:
    """Starts job processes one at a time and measures each with wait4."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.env = _job_env()

    def spawn(self, argv: list[str]) -> dict:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "macrofield", *argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            # os.kill, not proc.kill: Popen would reap the child before wait4 does
            timer = threading.Timer(timeout, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the job and wait for it
                _kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "code": proc.returncode,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes()[-2000:].decode("utf-8", "replace"),
        }

    def run_job(self, job) -> dict:
        res = self.spawn(job.argv())
        res["job"] = job.name
        res["command"] = job.command
        res["problems"] = _problems(job, res)
        return res

    def run_pass(self, jobs) -> dict:
        start = time.perf_counter()
        results = [self.run_job(job) for job in jobs]
        return {"wall_s": time.perf_counter() - start, "jobs": results}


def _problems(job, res: dict) -> list[str]:
    if res["code"] != 0:
        return [f"exit code {res['code']}: {res['stderr'].strip()[-300:]}"]
    try:
        report = json.loads(res["stdout"])
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    res["report"] = report
    return jobs_mod.check_report(job, report)


def setup_time(runner: Runner) -> float:
    times = []
    for _ in range(SETUP_STARTS):
        res = runner.spawn(["--version"])
        if res["code"] != 0:
            raise RuntimeError(f"macrofield --version failed: {res['stderr']}")
        times.append(res["wall_s"])
    return statistics.median(times)


def _git_commit() -> str:
    # the ceiling keeps git from searching above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# imports numpy only: scipy's version comes from its metadata, which is cheaper
_FACTS_CODE = """
import importlib.metadata, json, sys, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
                  "python": sys.version.split()[0], "blas": blas}))
"""


def machine_facts(seed: int) -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    libs = subprocess.run(
        [sys.executable, "-c", _FACTS_CODE], capture_output=True, text=True,
        env=_job_env(), cwd=ROOT, timeout=60, check=True,
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024.0),
        "machine": platform.machine(),
        **json.loads(libs.stdout),
        "MACROFIELD_THREADS": os.environ.get("MACROFIELD_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _pass_summary(p: dict) -> dict:
    jobs = p["jobs"]
    return {
        "wall_s": p["wall_s"],
        "cpu_s": sum(j["cpu_s"] for j in jobs),
        "peak_rss_mb": max(j["rss_mb"] for j in jobs),
    }


def _job_line(j: dict) -> str:
    status = "ok" if not j["problems"] else "FAILED " + "; ".join(j["problems"])
    return f"  {j['job']:<32} {j['wall_s']:8.3f} s {j['rss_mb']:8.1f} MB  {status}"


def _slim(j: dict) -> dict:
    return {k: j[k] for k in ("job", "command", "wall_s", "cpu_s", "rss_mb", "code", "problems")}


def run_untraced(runner: Runner, jobs, seconds: float, record: dict):
    passes = []
    start = time.perf_counter()
    while True:
        p = runner.run_pass(jobs)
        passes.append(p)
        print(f"pass {len(passes)}: {p['wall_s']:.3f} s")
        for j in p["jobs"]:
            print(_job_line(j))
        longest = max(q["wall_s"] for q in passes)
        if time.perf_counter() - start + longest > seconds:
            break
    summaries = [_pass_summary(p) for p in passes]
    record["passes"] = [
        {**s, "jobs": [_slim(j) for j in p["jobs"]]} for s, p in zip(summaries, passes)
    ]
    metrics = {
        key: (statistics.median(s[key] for s in summaries), unit)
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
    }
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["problems"])
    return metrics, attempted, failed


def run_traced(runner: Runner, jobs, workload: str, record: dict):
    # the replay imports the program in-process; only the traced run needs it
    sys.path.insert(0, str(ROOT / "src"))
    import replay as trace_mod

    p = runner.run_pass(jobs)
    print(f"untraced pass: {p['wall_s']:.3f} s")
    for j in p["jobs"]:
        print(_job_line(j))
    metrics = {}
    for cmd in jobs_mod.COMMANDS:
        mine = [j for j in p["jobs"] if j["command"] == cmd]
        metrics[f"cli.{cmd}.s"] = (float(sum(j["wall_s"] for j in mine)), "s")
        metrics[f"cli.{cmd}.rss_mb"] = (max((j["rss_mb"] for j in mine), default=0.0), "MB")
    attempted, failed = len(jobs), sum(1 for j in p["jobs"] if j["problems"])
    problems = {j["job"]: j["problems"] for j in p["jobs"] if j["problems"]}

    tracer = trace_mod.Tracer()
    diffs = {}
    start = time.perf_counter()
    for job, cli in zip(jobs, p["jobs"]):
        try:
            traced = trace_mod.replay(tracer, job)
        except Exception:  # a failing job is reported by name; the pass goes on
            traceback.print_exc()
            diffs[job.name] = float("inf")
            continue
        cli_records = cli.get("report", {}).get("records", [])
        diffs[job.name] = trace_mod.max_record_diff(cli_records, traced)
    traced_wall = time.perf_counter() - start
    print(f"traced pass: {traced_wall:.3f} s")
    for name, diff in diffs.items():
        attempted += 1
        if not diff <= TRACE_TOL:
            failed += 1
            problems[f"trace:{name}"] = [f"replay differs from the CLI by {diff!r}"]
        print(f"  trace {name:<26} max |diff| {diff:.3e}")
    metrics.update(trace_mod.layer_metrics(tracer))
    metrics["trace.overhead"] = (traced_wall / p["wall_s"], "ratio")

    stable = next(j for j in jobs if j.name == jobs_mod.STABILITY_JOB[workload])
    outputs = []
    for k in range(2):
        path = runner.tmp / f"stable{k}.out"
        res = runner.spawn([*stable.argv(), "--no-timestamp", "--out", str(path)])
        outputs.append(path.read_bytes() if res["code"] == 0 and path.is_file() else None)
    attempted += 1
    stable_ok = outputs[0] is not None and outputs[0] == outputs[1]
    if not stable_ok:
        failed += 1
        problems[f"bytes:{stable.name}"] = ["two --no-timestamp reports differ"]
    print(f"byte stability of {stable.name}: {'ok' if stable_ok else 'FAILED'}")

    record["untraced_pass"] = {**_pass_summary(p), "jobs": [_slim(j) for j in p["jobs"]]}
    record["traced_pass_s"] = traced_wall
    record["trace_max_diff"] = diffs
    record["spans"] = [
        {"name": s.name, "job": s.job, "parent": s.parent, "start": s.start, "end": s.end,
         **s.counts}
        for s in tracer.spans
    ]
    record["problems"] = problems
    return metrics, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so a running job is stopped before exit
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (ROOT / "src" / "macrofield" / "cli.py").is_file():
        print(f"error: no macrofield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    jobs = jobs_mod.workload_jobs(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": [[j.name, *j.argv()] for j in jobs]}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        runner = Runner(Path(tmp), time.monotonic() + RUN_DEADLINE_S)
        record["facts"] = machine_facts(args.seed)
        print("facts: " + json.dumps(record["facts"], sort_keys=True))
        if args.trace:
            metrics, attempted, failed = run_traced(runner, jobs, args.workload, record)
        else:
            metrics, attempted, failed = run_untraced(runner, jobs, args.seconds, record)
            metrics["setup_s"] = (setup_time(runner), "s")

    print(f"fail_frac: {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
