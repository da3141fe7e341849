"""One workload run, in the child interpreter that ``run.py`` starts.

Takes the same arguments as ``run.py``.  Imports the checkout's ``src/``,
runs the workload, checks its outputs and prints the summary, the
``report`` line and the result line.  Scratch files go to ``TMPDIR``,
which ``run.py`` points inside the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import sys
import traceback
from typing import Any, Dict, List, NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(2)


def _terminate(signum: int, frame: Any) -> NoReturn:
    # Unwind through the workload's ``finally`` blocks, which close the
    # scheduler, searchers and worker pools.
    raise SystemExit(128 + signum)


def _load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and prove it is used."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no program to measure: {src}/repro does not exist")
    sys.path.insert(0, src)
    import repro

    location = os.path.realpath(os.path.dirname(repro.__file__))
    if not location.startswith(os.path.realpath(src) + os.sep):
        _fail(f"imported repro from {location}, not from {src}")


def _parse(argv: List[str], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _metrics(spec: Dict[str, Any], outcome: Any, traced: bool) -> Dict[str, Dict[str, Any]]:
    """The result line's metrics, in ``BENCHMARK.json`` order.

    End-to-end metrics must all be measured and positive.  Per-layer
    metrics of a layer the workload does not call read 0.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    if traced:
        for entry in spec["per_layer"]:
            value = float(outcome.per_layer.get(entry["name"], 0.0))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        unknown = set(outcome.per_layer) - set(metrics)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        return metrics
    for entry in spec["end_to_end"]:
        name = entry["name"]
        if name not in outcome.end_to_end:
            raise RuntimeError(f"end-to-end metric {name!r} was not measured")
        value = float(outcome.end_to_end[name])
        if not math.isfinite(value) or value <= 0:
            raise RuntimeError(f"end-to-end metric {name!r} measured {value!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = _load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    args = _parse(argv, workloads)
    _import_program()
    sys.path.insert(0, HERE)

    import harness

    module = importlib.import_module(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
        metrics = _metrics(spec, outcome, bool(args.trace))
    except Exception:
        traceback.print_exc()
        _fail(f"workload {args.workload} did not complete")

    outcome.report["host"] = harness.host_fingerprint(outcome.report.get("active_transport"))
    outcome.report["problems"] = outcome.problems
    for name, entry in metrics.items():
        print(f"{args.workload:>15} {name:<26} {entry['value']:>14.6g} {entry['unit']}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"report": outcome.report}, default=str, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
