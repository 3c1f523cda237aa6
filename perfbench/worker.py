"""One workload in one fresh process: set up, then run timed passes.

Started by run.py; not meant to be run by hand. It prints ``ready`` on
standard output the moment set-up is done (run.py times set-up up to
that line), then writes its result as JSON to the file named by
``--result``. With ``--setup-only`` it stops after ``ready``.

A pass runs every verdict of the workload once, one after another: a
closed loop with a single client. Passes repeat while another pass
still fits in ``--seconds``, with at least two passes. With
``--trace 1`` untraced and traced passes alternate, and the difference
of their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
CLI_PROBES = 5

perf = time.perf_counter


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import gradedtwist

    if Path(gradedtwist.__file__).resolve().parent != SRC / "gradedtwist":
        sys.exit(f"imported gradedtwist from {gradedtwist.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        workload.setup()
        if args.trace:
            from gradedtwist import cli  # noqa: F401  (the replay runs the CLI in process)
        print("ready", flush=True)
        if args.setup_only:
            return
        result = measure(workload, args.seconds, bool(args.trace), args.seed)
        result["after_checks"] = [[name, ok] for name, ok in workload.after_checks()]
        if args.trace:
            result["cli_probes"] = cli_probes()
        Path(args.result).write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(verdicts, tracer=None) -> tuple[float, list]:
    rows = []
    start = perf()
    for v in verdicts:
        if tracer is not None:
            tracer.verdict = v.id
        try:
            outcome = v.run()
        except Exception:
            from workloads import Outcome

            outcome = Outcome(False, None, traceback.format_exc(limit=3))
        rows.append((v, outcome))
    return perf() - start, rows


def measure(workload, seconds: float, trace: bool, seed: int) -> dict:
    """Run passes for `seconds` and reduce them to per-pass figures."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    verdicts = workload.verdicts(in_process=trace)
    passes = []  # (seconds, traced, rows)
    start = perf()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            seconds_taken, rows = run_pass(verdicts, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((seconds_taken, traced, rows))
        longest = max(p[0] for p in passes)
        if len(passes) >= MIN_PASSES and perf() - start + longest > seconds:
            break

    attempted = failed = 0
    unexpected = []
    tolerated = set()
    groups: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {}
    for _s, traced, rows in passes:
        sums: dict[str, float] = {}
        for v, outcome in rows:
            attempted += 1
            if not outcome.ok:
                failed += 1
                if v.defect is not None and outcome.observed == v.defect:
                    tolerated.add(v.id)
                else:
                    unexpected.append(f"{v.id}: {outcome.detail}")
            if outcome.seconds is not None and not traced:
                sums[v.group] = sums.get(v.group, 0.0) + outcome.seconds
                samples.setdefault(v.group, []).append(outcome.seconds)
        if not traced:
            for group, total in sums.items():
                groups.setdefault(group, []).append(total)

    result = {
        "workload": workload.name,
        "passes": len(passes),
        "untraced_pass_s": [p[0] for p in passes if not p[1]],
        "traced_pass_s": [p[0] for p in passes if p[1]],
        "verdicts_per_pass": len(verdicts),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected[:20],
        "tolerated_defects": sorted(tolerated),
        "summary": {k: list(v) for k, v in workload.summary(groups, samples).items()},
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-batch" and not trace),
    }
    if trace:
        traced_passes = len(result["traced_pass_s"])
        result["layers"] = {k: list(v) for k, v in tracer.layer_metrics(traced_passes).items()}
        result["shapes"] = tracer.shapes()
        result["observe_s"] = tracer.observe_s / traced_passes
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.json")
    return result


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_probes() -> dict:
    """Wall time of a bare interpreter and, measured inside a fresh
    interpreter, of `import gradedtwist.cli`; medians of CLI_PROBES each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = []
    imports = []
    for _ in range(CLI_PROBES):
        t0 = perf()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append(perf() - t0)
        code = ("import time; t = time.perf_counter(); import gradedtwist.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                             capture_output=True, text=True).stdout
        imports.append(float(out.strip()))
    return {"interpreter_s": median(bare), "import_s": median(imports)}


if __name__ == "__main__":
    main()
