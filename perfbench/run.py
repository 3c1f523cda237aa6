"""gradedtwist benchmark: one workload per call, in fresh processes.

    python3 perfbench/run.py --workload <cli-batch|backward-qq|gamma-fp> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it benchmarks the library under
``src/`` there. Set-up is done in fresh worker processes, SETUP_SAMPLES
times, and ``setup_s`` is their median: all but the last worker stop
after set-up, and the last goes on to run the timed passes (see
worker.py). Every verdict is checked against its known answer. The
report lists every metric by name and unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Exit codes: 0 after a complete run (whatever the verdicts), 1 when a
worker fails or overruns, 2 when there is no ``src/gradedtwist`` to
benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import selectors
import shutil
import subprocess
import sys
import time
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-batch", "backward-qq", "gamma-fp")
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb", "headline_s")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

perf = time.perf_counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = perf()
    if not (ROOT / "src" / "gradedtwist" / "__init__.py").is_file():
        print(f"error: no src/gradedtwist under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    work = HERE / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, result = run_workers(args, work, started + DEADLINE_S)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = build_report(args, setup, result)
    (HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print_report(report)
    print(json.dumps(report["final"]))
    return 0


class WorkerError(RuntimeError):
    pass


def run_workers(args, work: Path, deadline: float):
    setup = []
    result_file = work / "result.json"
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(work / f"w{i}")]
        cmd += ["--result", str(result_file)] if last else ["--setup-only"]
        t0 = perf()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
        try:
            line = read_line(proc, deadline)
            setup.append(perf() - t0)
            if line != b"ready":
                raise WorkerError(f"worker said {line!r} instead of ready")
            proc.wait(timeout=max(0.0, deadline - perf()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker overran the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
    return setup, json.loads(result_file.read_text())


def read_line(proc, deadline: float) -> bytes:
    """First line of the worker's stdout, waiting no later than deadline."""
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while b"\n" not in buf:
            remaining = deadline - perf()
            if remaining <= 0 or not sel.select(timeout=remaining):
                raise subprocess.TimeoutExpired(proc.args, deadline)
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buf += chunk
    return buf.split(b"\n", 1)[0].strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympy_importable": importlib.util.find_spec("sympy") is not None,
        "load": "closed loop, one client, one verdict at a time",
    }


def build_report(args, setup, result) -> dict:
    failed_checks = [name for name, ok in result["after_checks"] if not ok]
    correct = not result["unexpected"] and not failed_checks
    ratio = result["failed"] / result["attempted"]
    named = {
        "setup_s": (median(setup), "s", f"median of {len(setup)} fresh processes"),
        "pass_s": (median(result["untraced_pass_s"]), "s",
                   f"median of {len(result['untraced_pass_s'])} untraced passes"),
        "verdict_fail_ratio": (ratio, "ratio", f"{result['failed']} failed of {result['attempted']}"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB",
                        "CLI child processes" if args.workload == "cli-batch" and not args.trace
                        else "workload process"),
    }
    named.update({k: tuple(v) for k, v in result["summary"].items()})
    if args.trace:
        # end-to-end figures come from untraced runs only
        named = {"verdict_fail_ratio": named["verdict_fail_ratio"]}
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        untraced = median(result["untraced_pass_s"])
        traced = median(result["traced_pass_s"])
        probes = result["cli_probes"]
        extra = {
            "cli.interpreter_s": (probes["interpreter_s"], "s"),
            "cli.import_s": (probes["import_s"], "s"),
            "trace.untraced_pass_s": (untraced, "s"),
            "trace.traced_pass_s": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
        }
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    else:
        metrics = {name: {"value": named[name][0], "unit": named[name][1]}
                   for name in END_TO_END}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "named": {k: list(v) for k, v in named.items()},
        "verdicts_per_pass": result["verdicts_per_pass"],
        "passes": result["passes"],
        "unexpected": result["unexpected"],
        "tolerated_defects": result["tolerated_defects"],
        "after_checks": result["after_checks"],
        "shapes": result.get("shapes", {}),
        "observe_s": result.get("observe_s"),
        "final": {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        },
    }


def print_report(report):
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"  python {env['python']}, nproc {env['nproc']}, sympy importable: "
          f"{env['sympy_importable']}; {env['load']}")
    print(f"  {report['passes']} passes of {report['verdicts_per_pass']} verdicts")
    for name, (value, unit, note) in report["named"].items():
        print(f"  {name:<22} {value:>14.6f} {unit:<6} {note}")
    if report["trace"]:
        for name, m in report["final"]["metrics"].items():
            print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
        for name, shape in sorted(report["shapes"].items()):
            print(f"  largest {name} matrix: {shape}")
        print(f"  tracer bookkeeping excluded from self times: {report['observe_s']:.6f} s per pass")
    for vid in report["tolerated_defects"]:
        print(f"  known defect, counted as failed: {vid}")
    for line in report["unexpected"]:
        print(f"  UNEXPECTED: {line}")
    bad = [name for name, ok in report["after_checks"] if not ok]
    print(f"  oracle cross-checks: {len(report['after_checks']) - len(bad)} of "
          f"{len(report['after_checks'])} pass")
    for name in bad:
        print(f"  FAILED CHECK: {name}")


if __name__ == "__main__":
    sys.exit(main())
