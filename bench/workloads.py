"""The benchmark's workloads: synthetic generator settings, graph and solver
configuration. Why each one exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Sweep budget of the fixed-budget workloads. zeta is far below any reachable
# |dL| / ||X||_F, so every solve runs exactly this many sweeps whatever the seed.
FIXED_SWEEPS = 3
FIXED_BUDGET = {"zeta": 1e-15, "max_iter": FIXED_SWEEPS}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict                      # SynthSpec overrides of its defaults
    k: int                          # k-NN graph degree
    weights: str                    # build_graph strategy
    config: dict = field(default_factory=dict)  # SolverConfig overrides
    instances: int = 1              # independent data sets per run

    def instance_seeds(self, seed: int) -> list[int]:
        """Generator seeds of this run's instances; disjoint across run seeds."""
        return [seed * self.instances + j for j in range(self.instances)]


WORKLOADS = {w.name: w for w in (
    # The paper's instance, run to its zeta = 1e-4 stop. A run cycles over
    # eight draws so its medians describe the instance family rather than
    # one draw's 7-, 8- or 9-sweep count.
    Workload("desk", {}, k=4, weights="binary", instances=8),
    Workload("many_samples", {"m": 1000}, k=4, weights="binary", config=FIXED_BUDGET),
    Workload("large_tensor", {"m": 100, "shape": (48, 48, 8), "ranks": (10, 10, 8)},
             k=4, weights="binary", config=FIXED_BUDGET),
    Workload("dense_graph", {"m": 400}, k=48, weights="heat_kernel", config=FIXED_BUDGET),
)}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to a size that runs in well under a second."""
    m = 12
    return replace(
        w,
        spec={**w.spec, "m": m, "shape": (6, 6, 3), "ranks": (2, 2, 3)},
        k=min(w.k, m - 1),
        config={**w.config, "max_iter": 2},
        instances=min(w.instances, 2),
    )
