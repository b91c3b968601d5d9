"""One measured phase of one workload, run in a fresh interpreter.

``run.py`` starts this script once per phase so that the peak RSS and the
set-up times it reports belong to that phase alone, and so that the BLAS
thread count is fixed in the environment before numpy loads.  The last line
of standard output is a JSON object that ``run.py`` reads.

    python3 bench/phase.py --workload NAME --seed N --seconds S
        [--calls K] [--workers W] [--traced --spans-out FILE]
        [--reference [--record]] [--checks] [--toy]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SECONDS_PER_CALL = 0.02
# untimed calls before the timed ones: the first seconds of calls in a fresh
# process ran up to a fifth slower than the rest
WARMUP_SECONDS = 2.0
WARMUP_INDEX = 10**6    # warm-up calls take seeds no timed call uses


def _import_klausim():
    """Import klausim from this checkout's src/ and nowhere else."""
    if not (SRC / "klausim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no klausim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import klausim

    if Path(klausim.__file__).resolve().parent != SRC / "klausim":
        raise SystemExit(f"bench: klausim imported from {klausim.__file__}")
    return klausim


def call_seed(seed: int, index: int) -> int:
    """Noise seed of the index-th timed call of a run with this seed."""
    ss = np.random.SeedSequence([seed % 2**63, index])
    return int(ss.generate_state(1, np.uint32)[0])


def _peak_rss_mb(workers: int) -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # ru_maxrss of reaped children is the largest single child; with
    # `workers` live at once the sum is bounded by workers times that
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self_mb": own, "children_mb": kids,
            "peak_rss_mb": own + (workers * kids if kids > 0 else 0.0)}


def _environment() -> dict:
    import scipy

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--calls", type=int, default=0,
                    help="run exactly this many timed calls (0: fill --seconds)")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--reference", action="store_true",
                    help="first check the workload at its default seed")
    ap.add_argument("--record", action="store_true",
                    help="with --reference: report values, compare nothing")
    ap.add_argument("--checks", action="store_true",
                    help="first run the workload's extra checks")
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    _import_klausim()
    import klausim.basis
    import klausim.cli
    import klausim.diagnostics
    import klausim.dynamics
    import klausim.fields
    import klausim.fixedpoint
    import klausim.noise

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    import tracer as tracer_mod

    wl = WORKLOADS[args.workload]
    out = {"workload": wl.name, "calls": [], "setup_s": [], "errors": [],
           "attempted": 0, "failed": 0}

    def record_failure(where: str, errors: list[str]) -> None:
        out["failed"] += 1
        out["errors"] += [f"{where}: {e}" for e in errors]

    tr = None
    if args.traced:
        tr = tracer_mod.Tracer()
        tr.install({
            "basis": klausim.basis, "fields": klausim.fields,
            "noise": klausim.noise, "dynamics": klausim.dynamics,
            "fixedpoint": klausim.fixedpoint,
            "diagnostics": klausim.diagnostics, "cli": klausim.cli,
        })

    # output files of the glue workload go to a temporary directory inside
    # the checkout
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        workdir = Path(tmp)
        if args.reference:
            ref_path = Path(__file__).resolve().parent / "reference.json"
            want = json.loads(ref_path.read_text()).get(wl.name)
            out["attempted"] += 1
            try:
                cfg = wl.config(wl.default_seed, toy=False)
                sc = klausim.cli.build_scenario(cfg)
                result = wl.run(sc, cfg, args.workers, workdir)
                got = wl.reference_values(result)
                errors = wl.invariants(sc, cfg, result)
                if not args.record:
                    errors += (wl.compare_reference(got, want) if want
                               else ["no recorded reference values"])
                out["reference_values"] = got
                del sc, result
            except Exception:  # a raising call is a failed check
                errors = [traceback.format_exc()]
            if errors:
                record_failure(f"reference seed {wl.default_seed}", errors)
        if args.checks:
            out["attempted"] += 1
            try:
                errors = wl.extra_checks(args.workers)
            except Exception:
                errors = [traceback.format_exc()]
            if errors:
                record_failure("extra checks", errors)

        warm_until = time.perf_counter() + (0.0 if args.toy else WARMUP_SECONDS)
        k = 0
        while time.perf_counter() < warm_until:
            out["attempted"] += 1
            seed = call_seed(args.seed, WARMUP_INDEX + k)
            cfg = wl.config(seed, toy=args.toy)
            try:
                sc = klausim.cli.build_scenario(cfg)
                result = wl.run(sc, cfg, args.workers, workdir)
                errors = wl.invariants(sc, cfg, result)
            except Exception:
                errors = [traceback.format_exc()]
            if errors:
                record_failure(f"warm-up call {k} seed {seed}", errors)
            sc = result = None
            k += 1

        started = time.perf_counter()
        longest = 0.0
        i = 0
        while True:
            if args.calls and i >= args.calls:
                break
            if not args.calls and i > 0:
                spent = time.perf_counter() - started
                if spent + longest > args.seconds:
                    break
            seed = call_seed(args.seed, i)
            out["attempted"] += 1
            cfg = wl.config(seed, toy=args.toy)
            if not args.traced:
                # set-up alone, a few times before every call, so that the
                # set-up samples spread over the whole run like the calls
                spent = 0.0
                while spent < SETUP_SECONDS_PER_CALL:
                    t0 = time.perf_counter()
                    klausim.cli.build_scenario(cfg)
                    out["setup_s"].append(time.perf_counter() - t0)
                    spent += out["setup_s"][-1]
            t0 = time.perf_counter()
            try:
                if tr is not None:
                    tr.current_call = i
                    tr.active = True
                try:
                    sc = klausim.cli.build_scenario(cfg)
                    t1 = time.perf_counter()
                    result = wl.run(sc, cfg, args.workers, workdir)
                    t2 = time.perf_counter()
                finally:
                    if tr is not None:
                        tr.active = False
                dims = (sc.basis.n_modes, sc.basis.grid_size,
                        sc.solver.n_steps)
                paths, steps = wl.units(sc, result)
                errors = wl.invariants(sc, cfg, result)
                digest = wl.digest(result)
                written = wl.output_bytes(result)
            except Exception:
                errors = [traceback.format_exc()]
                t1 = t2 = time.perf_counter()
                paths = steps = 0
                digest, written = "", {}
            longest = max(longest, time.perf_counter() - t0)
            if errors:
                record_failure(f"call {i} seed {seed}", errors)
            else:
                out["setup_s"].append(t1 - t0)
                out["calls"].append({
                    "seed": seed, "wall_s": t2 - t1,
                    "paths": paths, "steps": steps, "digest": digest,
                    "bytes": written,
                })
            sc = result = None
            i += 1

    out["rss"] = _peak_rss_mb(args.workers if wl.pooled else 0)
    out["env"] = _environment()
    if tr is not None:
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            tr.save(args.spans_out)
        out["n_spans"] = tr.n_spans
        out["trace"] = _layer_summary(tr, dims, len(out["calls"]))
    print(json.dumps(out))
    return 0


def _layer_summary(tr, dims, n_calls: int) -> dict:
    """Per-entry-call layer figures from the spans (means over calls)."""
    s = tr.summary()
    per = 1.0 / max(n_calls, 1)
    layers = {name: {k: v * per for k, v in rec.items()}
              for name, rec in s.items() if not name.startswith("_")}
    step_ms = s["_step_ms"] if len(s["_step_ms"]) else np.zeros(1)
    n_modes, cells, n_steps = dims
    return {
        "layers": layers,
        "nested": {k: v * per for k, v in s["_nested"].items()},
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "n_modes": n_modes, "cells": cells, "n_steps": n_steps,
    }


if __name__ == "__main__":
    sys.exit(main())
