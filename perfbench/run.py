"""Serving benchmark of the repro query service: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run (see ``BENCHMARK.json`` for both
lists and for why each workload exists).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the diagnostics (raw and speed-adjusted values, reference
kernel times, sample counts, percentiles used, input and answer digests).

The benchmark imports the program from ``src/`` next to this directory and
writes only to ``.perfbench_work/`` in the repository root, which it removes
when it ends.  Without ``src/repro`` it exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-hot", "compile-cold", "scan-ingest")
DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"


class DriftError(RuntimeError):
    """The default seed no longer generates the recorded inputs."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_drift(workload: str, seed: int, found: str) -> None:
    if seed != DEFAULT_SEED:
        return
    recorded = json.loads(DIGESTS.read_text())[workload]
    if found != recorded:
        raise DriftError(
            f"{workload}: seed {seed} generates inputs with digest {found}, "
            f"but {recorded} is recorded in {DIGESTS.name}; a generator in "
            "repro.datasets or the run derivation changed the workload. "
            "Update the recorded digest only if the change is intended."
        )


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (diagnostics, result)."""
    import driver
    import inputs as inputs_module

    phases: dict[str, float] = {}
    started = time.perf_counter()
    inputs = inputs_module.make_inputs(args.workload, args.seed, args.seconds, workdir)
    input_digest = inputs_module.digest(inputs)
    _check_drift(args.workload, args.seed, input_digest)
    # The inputs live as long as the run; keep them out of the collector's
    # way so the program's collections cost what its own heap costs.
    gc.collect()
    gc.freeze()
    phases["inputs"] = time.perf_counter() - started
    started = time.perf_counter()
    if args.trace:
        metrics, diagnostics, windows = driver.traced(inputs, workdir)
    else:
        service, setup = driver.timed_setup(inputs, workdir)
        windows = [driver.drive(service, inputs, len(inputs.stream))]
        del service
        probe = driver.registration_probe(inputs) if inputs.workload != "scan-ingest" else None
        metrics, diagnostics = driver.end_to_end(inputs, windows[0], setup, probe)
    phases["measure"] = time.perf_counter() - started
    started = time.perf_counter()
    gate = driver.check(inputs, windows)
    phases["oracle"] = time.perf_counter() - started
    attempted = sum(window.attempted for window in windows)
    if not args.trace:
        metrics["success_rate"] = (attempted - gate["failed"]) / attempted
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": input_digest,
        "datasets_spec_cycle_numbering_agrees": inputs_module.cycle_numbering_agrees(),
        "stream_ops": len(inputs.stream),
        "phase_s": phases,
        **diagnostics,
        "oracle": gate,
    }
    declared = json.loads(BENCHMARK.read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    result = {
        "correct": gate["failed"] == 0,
        "attempted": attempted,
        "failed": gate["failed"],
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    return detail, result


def _pin_hash_seed(seed: int, argv: list[str]) -> None:
    """Re-execute under ``PYTHONHASHSEED`` derived from the workload seed.

    String hashing decides dict and set layouts, and with them both the
    program's speed and the order in which it enumerates sets (its recursion
    cycle numbering among them), so a seed only reproduces a run if it fixes
    the hash seed too.  ``exec`` replaces this process; nothing is spawned.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    _pin_hash_seed(args.seed, argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import driver
    import oracle

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        detail, result = run(args, workdir)
    except (DriftError, oracle.GateError, driver.SetupError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
