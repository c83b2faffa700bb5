"""Write one run's input files: per instance, a directory of sample_NNNN.dten
tensors and a manifest.csv, drawn by mrtucker.generate from the run seed.

It runs as a process of its own, so the measuring process never holds the
generator's arrays (they would count in its peak RSS) and the pipeline sees
only files:

    python3 bench/generate.py --workload desk --seed 0 --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pkg
from workloads import WORKLOADS, tiny


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    pkg.single_blas_thread()
    mt = pkg.import_mrtucker()
    from mrtucker import io

    workload = tiny(WORKLOADS[args.workload]) if args.tiny else WORKLOADS[args.workload]
    for j, seed in enumerate(workload.instance_seeds(args.seed)):
        inst = args.out / f"instance{j}"
        inst.mkdir(parents=True)
        samples, truth = mt.generate(mt.SynthSpec(**workload.spec, seed=seed))
        rows = []
        for i in range(samples.shape[0]):
            name = f"sample_{i:04d}.dten"
            io.write_tensor(inst / name, samples[i])
            rows.append((name, str(int(truth.labels[i]))))
        io.write_manifest(inst / "manifest.csv", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
