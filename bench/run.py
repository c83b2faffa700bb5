"""Outside-in benchmark of the mrtucker pipeline.

    python3 bench/run.py --workload desk --seed 0 --seconds 10 --trace 0

Generates the workload's input files from the seed in a child process, then
times load_samples -> select_ranks -> build_graph -> solve ->
stationarity_residual -> save_run on them until --seconds have passed,
checking every repetition. --trace 0 reports the end-to-end metrics named in
BENCHMARK.json; --trace 1 wraps the layer functions in span timers and reports
the per-layer metrics. The last line of stdout is the result object; the line
before it holds the environment, the tail percentiles and every value measured.
Inputs and outputs live in a temporary directory under .bench_work/ in the
checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pkg
from workloads import WORKLOADS, tiny

GENERATE_TIMEOUT_S = 150


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few samples (smoke test)")
    args = parser.parse_args(argv)

    with open(pkg.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    pkg.single_blas_thread()
    try:
        pkg.import_mrtucker()
    except pkg.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import envinfo      # noqa: E402 -- numpy must load after the thread setting
    import measure

    workload = tiny(WORKLOADS[args.workload]) if args.tiny else WORKLOADS[args.workload]
    scratch = pkg.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("generate.py")),
             "--workload", workload.name, "--seed", str(args.seed),
             "--out", str(work / "inputs")] + (["--tiny"] if args.tiny else []),
            check=True, timeout=GENERATE_TIMEOUT_S)
        instances = [measure.Instance(d / "manifest.csv", measure.dir_bytes(d))
                     for d in sorted((work / "inputs").iterdir())]
        report = measure.measure(workload, instances, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:         # another run still has its directory there
            pass

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": report[section][m["name"]], "unit": m["unit"]}
               for m in bench[section]}
    print(json.dumps({"workload": workload.name, "seed": args.seed, "tiny": args.tiny,
                      "environment": envinfo.environment(), **report}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
