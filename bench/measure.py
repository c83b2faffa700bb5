"""One benchmark run: repeat the user pipeline on generated input files, gate
every repetition for correctness, and reduce the timings to medians.

The pipeline uses public functions only:
io.load_samples -> ranks.select_ranks -> graph.build_graph -> solver.solve
-> solver.stationarity_residual -> io.save_run. The gate then reads the run
back with io.load_run.

The end-to-end timings are corrected for the machine's speed. On a shared VM
that speed drifts by 10-30% over tens of seconds to minutes, and a run's
median follows it. So a fixed reference kernel (``reference_s``) is timed
between repetitions, and each repetition's times are divided by its slowdown:
the mean of the kernel's times just before and just after it, over
``REF_NOMINAL_S``. The times then read as seconds at the reference speed. The
raw medians and the slowdown are in the report.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from mrtucker import graph, io, ranks, solver

from layers import Tracer, span_names, traced

# every run times at least this many repetitions of each kind
MIN_REPS = 3

# tier-1 acceptance tolerances; the first two scale with max(1, L at sweep 1)
RISE_TOL = 1e-12        # criterion 1: no sweep raises L
SLACK_TOL = 1e-10       # criterion 2: eq. (17) sufficient-decrease slack
ORTHO_TOL = 1e-10       # criterion 3: Stiefel defect of every factor

# percentiles tried for the tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

TIMINGS = ("setup_s", "solve_s", "sweep_ms", "finish_s", "pipeline_s")

# about the median time of reference_s on the 2-CPU Xeon VM that measured baseline.json
REF_NOMINAL_S = 0.015
_REF_DATA: dict = {}


class GateFailure(Exception):
    """A repetition's output broke a correctness check."""


@dataclass
class Instance:
    manifest: Path
    input_bytes: int
    ranks: tuple | None = None      # fixed by the first passing repetition
    edges: int | None = None


@dataclass
class Rep:
    setup_s: float
    solve_s: float
    finish_s: float
    pipeline_s: float
    iterations: int
    edges: int
    bytes_read: int
    bytes_written: int
    final_objective: float
    spans: dict | None = None       # traced repetitions only
    counts: dict | None = None
    slowdown: float = 1.0           # of the machine around this repetition, see reference_s

    @property
    def sweep_ms(self) -> float:
        return self.solve_s * 1e3 / self.iterations


def _reference_pass(d: dict) -> float:
    w, cores, row = d["w"], d["cores"], d["row"]
    acc = 0.0
    for i in range(40):                     # like objective's pair loop
        for j in range(i + 1, w.shape[0]):
            wij = w[i, j]
            if wij != 0.0:
                diff = cores[i] - cores[j]
                acc += float(wij) * float(np.dot(diff, diff))
    for i in range(0, w.shape[0], 10):      # like the core sweep's W row x cores
        np.dot(w[i], cores, out=row)
    for _ in range(3):                      # like unfold's copies
        for n in range(3):
            np.copyto(d["unfolded"][n], np.moveaxis(d["stack"], n + 1, 0))
    return acc


def reference_s() -> float:
    """Time one pass of a fixed kernel shaped like the pipeline's work: the
    objective's pair loop and the core sweep's row products on a 1% dense
    1000x1000 graph with (1000, 150) cores, and mode unfoldings of a stack of
    order-3 tensors.

    Its inputs never change and an untimed pass warms the caches first; it
    allocates nothing large, and BLAS runs on one thread. So what the program
    leaves behind (cache contents, the allocator's state) does not move its
    time: that time measures the machine, not the program.
    """
    if not _REF_DATA:
        rng = np.random.default_rng(0)
        m = 1000
        stack = rng.standard_normal((40, 24, 24, 8))
        _REF_DATA.update(
            w=np.where(rng.random((m, m)) < 0.01, rng.random((m, m)), 0.0),
            cores=rng.standard_normal((m, 150)), row=np.empty(150), stack=stack,
            unfolded=[np.empty(np.moveaxis(stack, n + 1, 0).shape) for n in range(3)])
    _reference_pass(_REF_DATA)
    t0 = time.perf_counter()
    _reference_pass(_REF_DATA)
    return time.perf_counter() - t0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def _check(inst: Instance, sel, edges, result, factor_res, core_res, out_dir: Path) -> None:
    objs = result.trace.objectives()
    if not (np.all(np.isfinite(objs)) and np.all(np.isfinite(factor_res))
            and np.all(np.isfinite(core_res))):
        raise GateFailure("non-finite objective or stationarity residual")
    scale = max(1.0, float(objs[0]))
    rise = float(np.max(np.diff(objs), initial=-np.inf))
    if rise > RISE_TOL * scale:
        raise GateFailure(f"a sweep raised the objective by {rise:.3e}")
    slack = min((r.decrease_slack for r in result.trace.records[1:]), default=0.0)
    if slack < -SLACK_TOL * scale:
        raise GateFailure(f"decrease slack {slack:.3e} below the eq. (17) bound")
    defect = result.factors.orthogonality_defect()
    if defect > ORTHO_TOL:
        raise GateFailure(f"orthogonality defect {defect:.3e}")
    factors, cores, _, _ = io.load_run(out_dir)
    pairs = zip(factors.as_list() + [cores], result.factors.as_list() + [result.cores])
    if not all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs):
        raise GateFailure("load_run did not return bitwise-equal factors and cores")
    if inst.ranks is None:
        inst.ranks, inst.edges = sel, edges
    elif (sel, edges) != (inst.ranks, inst.edges):
        raise GateFailure(f"ranks/edges {sel}/{edges} differ from the first "
                          f"repetition's {inst.ranks}/{inst.edges}")


def run_rep(inst: Instance, out_dir: Path, workload, config) -> Rep:
    """One repetition: the timed pipeline, then the untimed correctness gate."""
    t0 = time.perf_counter()
    samples, _ = io.load_samples(inst.manifest)
    sel = ranks.select_ranks(samples)
    g = graph.build_graph(samples, k=workload.k, strategy=workload.weights)
    t1 = time.perf_counter()
    result = solver.solve(samples, g, sel, config)
    t2 = time.perf_counter()
    factor_res, core_res = solver.stationarity_residual(
        samples, result.cores, result.factors, g, config)
    final = result.trace.records[-1].objective
    io.save_run(out_dir, result, {
        "ranks": list(sel),
        "iterations": result.n_iter,
        "stop_reason": result.stop_reason,
        "final_objective": final,
        "stationarity": {"factor_residuals": factor_res.tolist(),
                         "core_residuals": core_res.tolist()},
    })
    t3 = time.perf_counter()

    edges = int(np.count_nonzero(g.w)) // 2
    _check(inst, sel, edges, result, factor_res, core_res, out_dir)
    written = dir_bytes(out_dir)     # load_run reads back every file save_run wrote
    return Rep(setup_s=t1 - t0, solve_s=t2 - t1, finish_s=t3 - t2, pipeline_s=t3 - t0,
               iterations=result.n_iter, edges=edges,
               bytes_read=inst.input_bytes + written, bytes_written=written,
               final_objective=final)


def tail(values) -> dict:
    """The highest listed percentile with at least ten samples beyond it, or
    the maximum when there are too few samples for any."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return {"percentile": f"p{p:g}", "value": float(np.percentile(values, p)), "n": n}
    return {"percentile": "max", "value": float(max(values)), "n": n}


def _layer_values(rep: Rep, names) -> dict:
    out = {}
    for name in names:
        agg = rep.spans.get(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        for key, value in agg.items():
            out[f"{name}.{key}"] = value
    solve = rep.spans["solver.solve"]
    out.update({
        "solver.iterations": rep.iterations,
        "graph.edges": rep.edges,
        "io.bytes_read": rep.bytes_read,
        "io.bytes_written": rep.bytes_written,
        "tensor.mode_product.gflop": rep.counts.get("tensor.mode_product.gflop", 0.0),
        "trace.solve_coverage": 1.0 - solve["self_ms"] / solve["ms"],
        "solver.final_objective": rep.final_objective,
    })
    return out


def measure(workload, instances: list[Instance], work_dir: Path, seconds: float,
            trace: bool) -> dict:
    """Warm up once per instance, then repeat until `seconds` have passed.

    With trace, untraced and traced repetitions alternate on the same
    instance, so their difference is the tracing overhead.
    """
    config = solver.SolverConfig(**workload.config)
    # Every repetition overwrites one run directory, as a user rerunning into
    # the same --out does. On ext4, deleting the files between repetitions
    # made save_run's cost climb within a run (2 -> 15 ms for desk's 27 files
    # over 40 s), and a new directory per repetition cost 13-22 ms against 5.
    out_dir = work_dir / "run"
    kinds = 2 if trace else 1
    untraced: list[Rep] = []
    traced_reps: list[Rep] = []
    failures: list[str] = []
    attempted = 0

    def attempt(inst: Instance, tracer: Tracer | None) -> Rep | None:
        nonlocal attempted
        attempted += 1
        try:
            if tracer is None:
                return run_rep(inst, out_dir, workload, config)
            with traced(tracer):
                rep = run_rep(inst, out_dir, workload, config)
            rep.spans, rep.counts = tracer.totals(), dict(tracer.counts)
            return rep
        except Exception as exc:    # a failed repetition is counted, and the run goes on
            failures.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    for inst in instances:
        attempt(inst, None)
    # Peak RSS of one pipeline run per instance in a fresh process. Read later,
    # it would also count the heap growth that repeated runs leave behind,
    # which steps between 141 and 153 MB from run to run on many_samples.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference_s()               # allocates the kernel's arrays, after the RSS read
    ref_before = reference_s()
    # traced minus untraced solve_s of back-to-back repetitions on one instance;
    # pairing cancels the machine's slow drift, which a difference of medians keeps
    overheads: list[float] = []
    deadline = time.perf_counter() + seconds
    i = 0
    prev = None
    while i < MIN_REPS * kinds * len(instances) or time.perf_counter() < deadline:
        inst = instances[(i // kinds) % len(instances)]
        is_traced = i % kinds == 1
        rep = attempt(inst, Tracer() if is_traced else None)
        ref_after = reference_s()
        if rep is not None:
            rep.slowdown = (ref_before + ref_after) / 2 / REF_NOMINAL_S
            (traced_reps if is_traced else untraced).append(rep)
            if is_traced and prev is not None:
                overheads.append(rep.solve_s - prev.solve_s)
        prev = None if is_traced else rep
        ref_before = ref_after
        i += 1

    if not untraced or (trace and not traced_reps):
        raise RuntimeError(f"every repetition failed: {failures[:3]}")

    samples = {name: [getattr(r, name) / r.slowdown for r in untraced] for name in TIMINGS}
    end_to_end = {name: statistics.median(v) for name, v in samples.items()}
    end_to_end["peak_rss_mb"] = peak_rss_mb
    report = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "repetitions": {"untraced": len(untraced), "traced": len(traced_reps)},
        "end_to_end": end_to_end,
        "tails": {name: tail(v) for name, v in samples.items()},
        "raw_end_to_end": {name: statistics.median(getattr(r, name) for r in untraced)
                           for name in TIMINGS},
        "slowdown": statistics.median(r.slowdown for r in untraced),
        "final_objective": statistics.median(r.final_objective for r in untraced),
    }
    if trace:
        names = span_names()
        per_rep = [_layer_values(r, names) for r in traced_reps]
        per_layer = {key: statistics.median(d[key] for d in per_rep) for key in per_rep[0]}
        per_layer["trace.solve_overhead_s"] = statistics.median(overheads or [
            statistics.median(r.solve_s for r in traced_reps)
            - statistics.median(r.solve_s for r in untraced)])
        per_layer["error_rate"] = len(failures) / attempted
        report["per_layer"] = per_layer
    return report
