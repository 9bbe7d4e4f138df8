"""Benchmark idemkit end to end and module by module.

    python3 perfbench/run.py --workload harness|bulk --seed N --seconds S --trace 0|1

Run from the root of a checkout: idemkit is imported from `src/`, nothing
is installed.  The workload's own part runs whole rounds for S seconds.
With --trace 0 the run also makes light rounds of the other two parts (the
CLI part among them) on fixed inputs, so every run reports every end-to-end
metric; with --trace 1 it traces the workload's own part and times each
module's operations at fixed sizes.  End-to-end times are scaled to a
reference host speed by calibration points taken around each timed call
(see common.Ledger).  The last line of standard output is
one JSON object; the full record (environment, failures, span summary) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bulk import Bulk  # noqa: E402
from cli_calls import Cli  # noqa: E402
from common import ROOT, SRC, Ledger, clock, load_idemkit, median  # noqa: E402
from harness import CAPACITY, MONAD, Harness  # noqa: E402
from probes import run_probes  # noqa: E402
from tracing import Tracer  # noqa: E402

PARTS = (Harness, Bulk, Cli)
# the CLI part runs in every workload on fixed inputs; see README.md for why
# it is not a workload of its own
WORKLOADS = {part.name: part for part in (Harness, Bulk)}

SETUPS = 5
# the other parts' light pass uses these inputs whatever the run's seed
LIGHT_SEED = 0
LIGHT_ROUNDS = {"harness": 6, "bulk": 6, "cli": 4}

END_TO_END = {
    "setup_s": "s",
    "laws_all_s": "s",
    "laws_monad_s": "s",
    "laws_capacity_s": "s",
    "laws_convexity_s": "s",
    "selftest_s": "s",
    "bulk_monad_s": "s",
    "bulk_capacity_s": "s",
    "cli_call_ms": "ms",
    "cli_doc_call_ms": "ms",
}

# untraced/traced round pairs in a traced run; a traced harness round
# records about 1 million spans
TRACE_PAIRS = 2

# span name -> metrics read off the trace, per traced round
SPAN_METRICS = {
    "semiring.resolve_tolerance": ("calls",),
    "seeding.trial_stream": ("calls",),
    "measures.multiply": ("calls", "self_s"),
    "capacities.check_characterization": ("self_s",),
    "capacities.recover_capacity": ("self_s",),
    "convexity.hull_member": ("calls", "self_s"),
    "convexity.barycenter_member": ("self_s",),
    "convexity.check_algebra": ("self_s",),
}


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            env["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "idemkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def measure(own, light: list, led: Ledger, seconds: float) -> tuple[list, dict[str, list], dict[str, float]]:
    """Whole rounds of the workload's own part for `seconds`, with the light
    rounds of the other parts spread evenly over the same time, so that no
    figure comes from one stretch of the host's speed.  Also returns the
    seconds spent in each part."""
    rounds: list = []
    extra: dict[str, list] = {p.name: [] for p in light}
    spent = {p.name: 0.0 for p in (own, *light)}
    start = clock()

    def one(part, done: list) -> None:
        t0 = clock()
        done.append(part.round(led))
        spent[part.name] += clock() - t0

    def due(final: bool) -> None:
        for part in light:
            done, quota = extra[part.name], LIGHT_ROUNDS[part.name]
            if final:
                while len(done) < quota:
                    one(part, done)
            elif len(done) < quota and clock() - start >= len(done) * seconds / quota:
                one(part, done)

    while len(rounds) < own.min_rounds or clock() - start < seconds:
        due(False)
        one(own, rounds)
    due(True)
    return rounds, extra, spent


def traced_metrics(own, led: Ledger, seed: int, ik) -> tuple[dict, dict]:
    """Untraced and traced rounds of the own part alternate, so that the
    overhead compares the same work at nearby times; then the probes."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    suite_s: dict[str, float] = {}
    for pair in range(TRACE_PAIRS):
        t0 = clock()
        own.round(led, pair)
        plain.append(clock() - t0)
        for suite, dt in getattr(own, "suite_s", {}).items():
            suite_s[suite] = min(dt, suite_s.get(suite, dt))
        with tracer:
            t0 = clock()
            own.round(led, pair)
            traced.append(clock() - t0)
    summary = tracer.summary()

    metrics: dict[str, float] = {}
    for span, keys in SPAN_METRICS.items():
        for key in keys:
            metrics[f"{span}.{key}"] = summary.get(span, {}).get(key, 0) / TRACE_PAIRS
    generate = tracer.outer_time("generate.")
    shrink = tracer.outer_time("laws._minimize")
    suites = summary.get("laws.run_suite", {}).get("total_s", 0.0)
    metrics["laws.generate_s"] = generate / TRACE_PAIRS
    metrics["laws.shrink_s"] = shrink / TRACE_PAIRS
    metrics["laws.check_s"] = max(0.0, suites - shrink - generate) / TRACE_PAIRS
    for suite in MONAD + CAPACITY:
        metrics[f"laws.{suite}_s"] = suite_s.get(suite, 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
    metrics["trace.spans"] = len(tracer.start) / TRACE_PAIRS

    probes, references = run_probes(ik, seed)
    metrics.update(probes)
    extras = {
        "untraced_round_s": plain,
        "traced_round_s": traced,
        "references": references,
        "top_self_s": dict(sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:40]),
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.save(out / f"spans-{own.name}.npz")
    return metrics, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "idemkit" / "__init__.py").is_file():
        print(f"error: no idemkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    others = [] if args.trace else [c for c in PARTS if c is not WORKLOADS[args.workload]]
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    # traced runs report raw seconds: their figures have no bound
    led = Ledger(calibrate=not args.trace)
    try:
        def set_up():
            ik = load_idemkit()
            own = WORKLOADS[args.workload](ik, args.seed, False, workdir)
            return ik, own, [c(ik, LIGHT_SEED, True, workdir) for c in others]

        setups = []
        for _ in range(SETUPS):
            (ik, own, light), dt = led.timed(set_up)
            setups.append(dt)

        extras: dict = {"setups_s": setups}
        if args.trace:
            metrics, more = traced_metrics(own, led, args.seed, ik)
            extras.update(more)
        else:
            rounds, extra, extras["part_s"] = measure(own, light, led, args.seconds)
            metrics = {"setup_s": median(setups), **own.metrics(rounds)}
            extras["rounds"] = len(rounds)
            if hasattr(own, "per_round"):
                extras["per_round"] = own.per_round(rounds)
            extras["calibration_points_s"] = {name: cal.points for name, cal in led.used.items()}
            for part in light:
                metrics.update(part.metrics(extra[part.name]))
            metrics = {name: metrics[name] for name in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    result = {
        "correct": led.correct,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name) if args.trace else END_TO_END[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, **result, "wrong": led.wrong[:20], "errors": led.errors[:20], "extras": extras}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, commit {env['git_commit']}, src {env['src_sha256'][:12]}")
    print(f"{args.workload}: attempted {led.attempted} failed {led.failed} correct {led.correct}")
    for line in (led.wrong + led.errors)[:10]:
        print(f"  ! {line}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
