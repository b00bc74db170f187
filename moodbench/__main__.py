"""``python3 -m moodbench``: the benchmark's command line.

Driver mode (one workload, one run; the last stdout line is the result)::

    python3 -m moodbench --workload server-oltp --seed 7 --seconds 12 --trace 0

Without ``--workload`` every workload is run untraced and traced and one
JSON document with every metric is printed; ``--quick`` shortens the
windows to 2 s (numbers flagged non-comparable), ``--check-repeat`` runs
the full set twice and fails when a pair of runs differs, in either
direction, by more than a metric's bound or a replay count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from moodbench import OUT_DIR, ROOT, child_env, require_repro


def _with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def _run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from moodbench import gen, spec
    from moodbench.run import run_once

    result = run_once(workload, seed, seconds, trace)
    # Determinism self-check: the stream is a function of the seed alone.
    digest = result["detail"]["workload_digest"]
    result["detail"]["seed_reproduces"] = (
        digest == gen.workload_digest(workload, seed)
        and digest != gen.workload_digest(workload, seed + 1))
    result["correct"] = bool(result["correct"]
                             and result["detail"]["seed_reproduces"])
    result["metrics"] = _with_units(result["metrics"], spec.UNITS)
    return result


def _driver_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One driver-mode run in a fresh process (a run's ``rss_mb`` and
    caches must not inherit from the runs before it)."""
    done = subprocess.run(
        [sys.executable, "-m", "moodbench", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        check=True,
    )
    detail, result = done.stdout.strip().splitlines()[-2:]
    return dict(json.loads(result), detail=json.loads(detail))


def run_all(seed: int, seconds: float, comparable: bool) -> dict:
    """Every workload, untraced then traced; one document."""
    from moodbench import spec

    document = {"comparable": comparable, "seed": seed, "seconds": seconds,
                "workloads": {}}
    for workload in spec.WORKLOADS:
        plain = _driver_run(workload.name, seed, seconds, trace=0)
        traced = _driver_run(workload.name, seed, seconds, trace=1)
        document["workloads"][workload.name] = {
            "correct": plain["correct"] and traced["correct"],
            "ops_attempted": plain["attempted"] + traced["attempted"],
            "ops_failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": plain["detail"],
        }
    return document


def _sound(document: dict) -> bool:
    return all(w["correct"] and w["ops_failed"] == 0
               for w in document["workloads"].values())


def check_repeat(seed: int, seconds: float) -> int:
    """Two full sets of runs of the same code must agree: every end-to-end
    metric within its bound, every replay count exactly."""
    from moodbench import spec

    first = run_all(seed, seconds, comparable=True)
    second = run_all(seed, seconds, comparable=True)
    bad = 0 if _sound(first) and _sound(second) else 1
    print(f"{'workload':<18} {'metric':<36} {'first':>12} {'second':>12} "
          f"{'apart':>7} {'bound':>6}")
    for name in first["workloads"]:
        one, two = first["workloads"][name], second["workloads"][name]
        for metric, _unit, _better, bound in spec.END_TO_END:
            a = one["end_to_end"][metric]["value"]
            b = two["end_to_end"][metric]["value"]
            # Same code, so neither run may beat the other by more than
            # the bound: a disturbed first run followed by a quiet one is
            # as unrepeatable as the reverse.  A zero is no measurement.
            apart = max(a / b, b / a) if a > 0 and b > 0 else float("inf")
            verdict = "" if apart <= 1.0 + bound else "  EXCEEDS"
            bad += bool(verdict)
            print(f"{name:<18} {metric:<36} {a:12.4f} {b:12.4f} "
                  f"{apart:7.3f} {bound:6.2f}{verdict}")
        for metric, unit, _better, source, _moves in spec.PER_LAYER:
            if source != "R" or unit == "ms":
                continue            # times vary; replay counts may not
            a = one["per_layer"][metric]["value"]
            b = two["per_layer"][metric]["value"]
            if a != b:
                bad += 1
                print(f"{name:<18} {metric:<36} {a:12.4f} {b:12.4f} "
                      f"{'':>7} {'exact':>6}  DIFFERS")
    print("check-repeat:", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m moodbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload "
                        "(driver mode); default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows; numbers are not comparable")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    require_repro()
    from moodbench import spec

    seconds = args.seconds or (2.0 if args.quick else spec.RUN_SECONDS)
    if args.check_repeat:
        return check_repeat(args.seed, seconds)
    if args.workload is None:
        document = run_all(args.seed, seconds, comparable=not args.quick)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "report.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        print(json.dumps(document))
        return 0 if _sound(document) else 1
    if args.workload not in spec.WORKLOAD_BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(spec.WORKLOAD_BY_NAME)}")
    result = _run(spec.WORKLOAD_BY_NAME[args.workload], args.seed, seconds,
                  bool(args.trace))
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Re-exec under a pinned hash seed so that set and dict iteration
        # order in the generator (and, through child_env, in every server
        # process) is the same on every run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, "-m", "moodbench"] + sys.argv[1:])
    raise SystemExit(main())
