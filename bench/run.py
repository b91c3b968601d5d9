"""Benchmark of klausim: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest
    python3 bench/run.py --record-reference

Run from the root of a checkout.  Each phase of a run is a fresh child
interpreter (``bench/phase.py``), so peak RSS and set-up time belong to that
phase alone.  Worker processes times BLAS threads never exceed the cores.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
wall time of a timed call, the median set-up (``cli.build_scenario``) time,
paths and time steps per second, and the peak RSS.  ``--trace 1`` runs the
same calls untraced and then traced from outside (``bench/tracer.py``) and
prints the per-layer metrics, checking that tracing leaves every output bit
for bit unchanged.  Every call's output is checked; a failed check makes the
exit status 1.  The last line of standard output is one JSON object.
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
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PHASE = BENCH / "phase.py"
WORKLOADS = ("mc_exit", "field_2d", "glue_ladder", "ensemble_pool")
POOLED = {"ensemble_pool": 2}     # worker processes per workload
RUN_LIMIT_S = 170.0               # a whole run, all phases included
LAYERS = ("basis", "fields", "noise", "dynamics", "fixedpoint",
          "diagnostics", "cli")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class PhaseError(RuntimeError):
    pass


class Runner:
    """Starts phases as child interpreters within one run's time limit."""

    def __init__(self, workload: str, seed: int, toy: bool):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.blas_threads = {}

    def phase(self, seconds: float, workers: int = 1, calls: int = 0,
              traced: bool = False, reference: bool = False,
              checks: bool = False, record: bool = False) -> dict:
        threads = max(1, nproc() // workers)
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(threads)
        self.blas_threads[workers] = threads
        # fixed string hashing: set and dict layouts otherwise move set-up
        # times by a third from one process to the next
        env["PYTHONHASHSEED"] = "0"
        cmd = [sys.executable, str(PHASE), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", f"{seconds:.3f}",
               "--workers", str(workers), "--calls", str(calls)]
        if traced:
            spans = ROOT / ".bench_work" / f"spans-{self.workload}.npz"
            cmd += ["--traced", "--spans-out", str(spans)]
        for flag, on in (("--reference", reference), ("--checks", checks),
                         ("--record", record), ("--toy", self.toy)):
            if on:
                cmd.append(flag)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PhaseError("run time limit reached before a phase started")
        # own process group, so a timeout also ends the pool's workers
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PhaseError(f"phase exceeded the {RUN_LIMIT_S:.0f} s run "
                             "limit") from exc
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PhaseError(f"phase exited with status {proc.returncode}")
        return json.loads(lines[-1])


def _walls(phase: dict) -> list[float]:
    return [c["wall_s"] for c in phase["calls"]]


def end_to_end(ph: dict) -> dict:
    calls = ph["calls"]
    return {
        "wall_s": (statistics.median(_walls(ph)), "s"),
        "setup_s": (statistics.median(ph["setup_s"]), "s"),
        "paths_per_s": (statistics.median(
            c["paths"] / c["wall_s"] for c in calls), "1/s"),
        "steps_per_s": (statistics.median(
            c["steps"] / c["wall_s"] for c in calls), "1/s"),
        "peak_rss_mb": (ph["rss"]["peak_rss_mb"], "MB"),
    }


def per_layer(untraced: dict, traced: dict, pooled: dict | None,
              workers: int) -> dict:
    """Per-entry-call layer metrics from the traced phase's spans."""
    tr = traced["trace"]
    L = tr["layers"]
    n_calls = max(len(traced["calls"]), 1)

    def get(name: str, field: str = "calls") -> float:
        return L.get(name, {}).get(field, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for name, rec in L.items():     # every wrapped function, called or not
        m[f"{name}.calls"] = (rec["calls"], "count")
        m[f"{name}.s"] = (rec["s"], "s")
        m[f"{name}.self_s"] = (rec["self_s"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(
            rec["self_s"] for name, rec in L.items()
            if name.startswith(layer + ".")), "s")

    cells, n_modes = tr["cells"], tr["n_modes"]
    transforms = get("basis.analyze") + get("basis.synthesize")
    # computed: one dense transform streams the n_modes x N^d table once
    m["basis.table_mb"] = (n_modes * cells * 8 / 1e6, "MB")
    m["basis.transform.gflop"] = (transforms * 2 * n_modes * cells / 1e9,
                                  "GFLOP")
    m["basis.transform.gb"] = (transforms * 8 * n_modes * cells / 1e9, "GB")
    m["dynamics.step_ms.p50"] = (tr["step_ms_p50"], "ms")
    m["dynamics.step_ms.p90"] = (tr["step_ms_p90"], "ms")
    m["dynamics.residual_evals_per_solve"] = (ratio(
        tr["nested"]["power_gamma_in_pm"],
        get("dynamics.pm_implicit_step")), "count")
    m["dynamics.gmres.matvecs_per_call"] = (ratio(
        tr["nested"]["apply_laplacian_in_gmres"], get("dynamics.gmres")),
        "count")
    steps = [get(s) for s in ("dynamics.step_coupled", "dynamics.step_frozen",
                              "dynamics.step_decoupled")]
    paths = statistics.mean(c["paths"] for c in traced["calls"]) \
        if traced["calls"] else 0.0
    sweeps = get("fixedpoint.apply_V")
    m["fixedpoint.sweeps_per_rung"] = (ratio(
        sweeps, get("fixedpoint.picard_solve")), "count")
    glued = get("fixedpoint.picard_solve") > 0
    m["fixedpoint.kept_step_frac"] = (ratio(
        tr["n_steps"], steps[1] + steps[2]) if glued else 0.0, "ratio")
    m["fixedpoint.steps_per_path"] = (ratio(sum(steps), paths), "count")
    untraced_wall = statistics.mean(_walls(untraced))
    m["fixedpoint.sweeps_per_s"] = (ratio(sweeps, untraced_wall), "1/s")
    for writer in ("write_norm_series", "write_snapshots"):
        m[f"cli.{writer}.bytes"] = (statistics.mean(
            c["bytes"].get(writer, 0) for c in traced["calls"]), "B")
    m["diagnostics.pool_efficiency"] = (ratio(
        sum(_walls(untraced)), workers * sum(_walls(pooled)))
        if pooled else 0.0, "ratio")
    m["trace.overhead_frac"] = (
        sum(_walls(traced)) / sum(_walls(untraced)) - 1.0, "ratio")
    m["trace.spans_per_call"] = (traced["n_spans"] / n_calls, "count")
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False) -> tuple[dict, dict, list[str]]:
    """Returns (metrics {name: (value, unit)}, info, errors)."""
    runner = Runner(workload, seed, toy)
    workers = POOLED.get(workload, 1)
    full_checks = not toy
    errors: list[str] = []
    attempted = failed = 0
    if not trace:
        ph = runner.phase(seconds, workers=workers, reference=full_checks,
                          checks=True)
        phases = [ph]
        metrics = end_to_end(ph) if ph["calls"] else {}
    else:
        share = 0.4 if workers > 1 else 0.5
        untraced = runner.phase(seconds * share, reference=full_checks,
                                checks=True)
        k = len(untraced["calls"]) or 1
        traced = runner.phase(0, calls=k, traced=True)
        phases = [untraced, traced]
        pooled = None
        if workers > 1:
            pooled = runner.phase(0, workers=workers, calls=k)
            phases.append(pooled)
        for other in phases[1:]:
            for a, b in zip(untraced["calls"], other["calls"]):
                attempted += 1
                if a["digest"] != b["digest"]:
                    failed += 1
                    errors.append(f"seed {a['seed']}: output differs between "
                                  "the untraced and the compared phase")
        complete = all(p["calls"] for p in phases)
        metrics = per_layer(untraced, traced, pooled, workers) \
            if complete else {}
    for ph in phases:
        attempted += ph["attempted"]
        failed += ph["failed"]
        errors += ph["errors"]
    info = {
        "attempted": attempted, "failed": failed,
        "calls": [len(ph["calls"]) for ph in phases],
        "blas_threads": runner.blas_threads, "env": phases[0]["env"],
        "rss": phases[0]["rss"],
        "walls": [[round(w, 4) for w in _walls(ph)] for ph in phases],
    }
    return metrics, info, errors


def machine() -> dict:
    return {"nproc": nproc(), "cpu": cpu_model(),
            "python": platform.python_version()}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        metrics, info, errors = run_workload(workload, seed, seconds, trace)
    except PhaseError as exc:
        print(f"bench: {workload}: {exc}", file=sys.stderr)
        return 1
    env = dict(machine(), **info["env"], blas_threads=info["blas_threads"],
               workers=POOLED.get(workload, 1))
    print(f"# workload {workload} seed {seed} trace {int(trace)}")
    print(f"# machine {json.dumps(env, sort_keys=True)}")
    print(f"# calls per phase {info['calls']}, rss {json.dumps(info['rss'])}")
    print(f"# call walls {info['walls']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value!r} {unit}")
    fail_frac = info["failed"] / max(info["attempted"], 1)
    print(f"fail_frac {fail_frac!r} ratio")
    for err in errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not info["failed"]:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    # a run whose every call failed has no metrics to report
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest() -> int:
    """Every workload at toy size, untraced and traced: every metric named in
    BENCHMARK.json comes out with its unit, checks pass, and tracing leaves
    the outputs bit for bit unchanged."""
    spec = benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            try:
                metrics, info, errors = run_workload(
                    workload, 1, 1.0, trace, toy=True)
            except PhaseError as exc:
                problems.append(f"{workload} trace={int(trace)}: {exc}")
                continue
            problems += [f"{workload}: {e}" for e in errors]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got[1] != m["unit"]:
                    problems.append(f"{workload}: metric {m['name']} "
                                    f"missing or not in {m['unit']}")
            print(f"selftest {workload} trace={int(trace)}: "
                  f"{info['attempted']} checked, {info['failed']} failed",
                  flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def record_reference() -> int:
    """Write the default-seed reference values of every workload."""
    refs = {}
    for workload in WORKLOADS:
        runner = Runner(workload, 0, toy=True)
        ph = runner.phase(0, workers=POOLED.get(workload, 1), calls=1,
                          reference=True, record=True)
        if ph["failed"]:
            print("\n".join(ph["errors"]), file=sys.stderr)
            return 1
        refs[workload] = ph["reference_values"]
        print(f"{workload}: {refs[workload]}", flush=True)
    (BENCH / "reference.json").write_text(
        json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "klausim" / "__init__.py").is_file():
        print(f"bench: no klausim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    return report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
