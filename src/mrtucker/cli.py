"""Command-line driver: rank selection, graph export, decomposition runs,
synthetic data generation, and run evaluation.

Exit codes: 0 success, 2 usage error (argparse), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import io
from .graph import DEFAULT_DELTA, build_graph, save_edge_list
from .ranks import DEFAULT_SIGMAS, RankPolicy, select_ranks
from .solver import SolverConfig, solve, stationarity_residual
from .synth import SynthSpec, evaluate, generate


def _parse_sigma(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated thresholds")
    return tuple(parts)


def _parse_weights(text: str):
    """'binary', 'cosine' or 'heat:DELTA' -> (strategy, delta)."""
    if text == "binary" or text == "cosine":
        return text, DEFAULT_DELTA
    if text == "heat":
        return "heat_kernel", DEFAULT_DELTA
    if text.startswith("heat:"):
        try:
            return "heat_kernel", float(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad heat kernel bandwidth in {text!r}")
    raise argparse.ArgumentTypeError(f"unknown weight strategy {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtucker",
        description="Manifold-regularized sparse orthogonal Tucker decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ranks = sub.add_parser("ranks", help="print adaptively selected ranks")
    p_ranks.add_argument("manifest")
    p_ranks.add_argument("--sigma", type=_parse_sigma, default=DEFAULT_SIGMAS,
                         metavar="A,B,C", help="per-mode energy thresholds")
    p_ranks.add_argument("--free-r3", action="store_true",
                         help="truncate mode 3 by sigma instead of keeping it full")

    p_graph = sub.add_parser("graph", help="build the k-NN weight graph and export edges")
    p_graph.add_argument("manifest")
    p_graph.add_argument("--k", type=int, required=True)
    p_graph.add_argument("--weights", type=_parse_weights, default=("binary", DEFAULT_DELTA),
                         metavar="binary|heat:DELTA|cosine")
    p_graph.add_argument("--out", required=True, help="edge list CSV path")

    p_dec = sub.add_parser("decompose", help="run the solver and write the run directory")
    p_dec.add_argument("manifest")
    p_dec.add_argument("--gamma", type=float, default=SolverConfig.gamma)
    p_dec.add_argument("--beta", type=float, default=SolverConfig.beta)
    p_dec.add_argument("--k", type=int, default=4)
    p_dec.add_argument("--weights", type=_parse_weights, default=("binary", DEFAULT_DELTA),
                       metavar="binary|heat:DELTA|cosine")
    p_dec.add_argument("--sigma", type=_parse_sigma, default=DEFAULT_SIGMAS, metavar="A,B,C")
    p_dec.add_argument("--free-r3", action="store_true")
    p_dec.add_argument("--zeta", type=float, default=SolverConfig.zeta)
    p_dec.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_dec.add_argument("--deterministic", action="store_true")
    p_dec.add_argument("--threads", type=int, default=None,
                       help="cap BLAS threads for the solve (requires threadpoolctl)")
    p_dec.add_argument("--out", required=True, help="output run directory")

    p_synth = sub.add_parser("synth", help="generate a synthetic sample set")
    p_synth.add_argument("--spec", required=True, help="JSON file of generator settings")
    p_synth.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a decompose run against its samples")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--k", type=int, default=4, help="neighborhood size for preservation")
    p_eval.add_argument("--json", action="store_true", help="emit a JSON line instead of a table")
    return parser


def _thread_limit(n, flag: str):
    """Cap BLAS threads at n while the returned limiter is registered; flag
    names the option that asked for the cap."""
    if n is None:
        return None
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(f"warning: threadpoolctl not installed, {flag} ignored", file=sys.stderr)
        return None
    return threadpool_limits(limits=n)


def cmd_ranks(args) -> int:
    samples, _ = io.load_samples(args.manifest)
    policy = RankPolicy(sigmas=args.sigma, fixed_r3_to_n=not args.free_r3)
    r = select_ranks(samples, policy)
    print(f"{r[0]} {r[1]} {r[2]}")
    return 0


def cmd_graph(args) -> int:
    samples, _ = io.load_samples(args.manifest)
    strategy, delta = args.weights
    g = build_graph(samples, k=args.k, strategy=strategy, delta=delta)
    save_edge_list(g, args.out)
    print(f"wrote {args.out}: {len(g.edges()[0])} edges over {g.m} samples")
    return 0


def cmd_decompose(args) -> int:
    samples, _ = io.load_samples(args.manifest)
    policy = RankPolicy(sigmas=args.sigma, fixed_r3_to_n=not args.free_r3)
    ranks = select_ranks(samples, policy)
    strategy, delta = args.weights
    g = build_graph(samples, k=args.k, strategy=strategy, delta=delta)
    config = SolverConfig(gamma=args.gamma, beta=args.beta, zeta=args.zeta,
                          max_iter=args.max_iter)
    cap, flag = (1, "--deterministic") if args.deterministic else (args.threads, "--threads")
    limiter = _thread_limit(cap, flag)
    t0 = time.perf_counter()
    try:
        result = solve(samples, g, ranks, config)
    finally:
        if limiter is not None:
            limiter.unregister()
    elapsed = time.perf_counter() - t0
    if args.deterministic:
        # wall time is the one nondeterministic trace column; zero it so the
        # emitted trace.csv is byte-identical across reruns
        for rec in result.trace.records:
            rec.wall_ms = 0.0
    factor_res, core_res = stationarity_residual(samples, result.cores, result.factors,
                                                 g, config)
    summary = {
        "config": dataclasses.asdict(config),
        "deterministic": bool(args.deterministic),
        "graph": {"k": g.k, "strategy": g.strategy, "delta": g.delta},
        "ranks": list(ranks),
        "sigma": list(args.sigma),
        "free_r3": bool(args.free_r3),
        "threads": cap if limiter is not None else None,    # the BLAS cap applied
        "samples": {"count": int(samples.shape[0]), "shape": list(samples.shape[1:])},
        "iterations": result.n_iter,
        "stop_reason": result.stop_reason,
        "final_objective": result.trace.records[-1].objective,
        "final_terms": {
            "l1": result.trace.records[-1].l1_term,
            "fit": result.trace.records[-1].fit_term,
            "manifold": result.trace.records[-1].manifold_term,
        },
        "stationarity": {
            "factor_residuals": factor_res.tolist(),
            "core_residuals": core_res.tolist(),
        },
        "wall_seconds": elapsed,
    }
    io.save_run(args.out, result, summary)
    print(f"wrote {args.out}: {result.n_iter} iterations ({result.stop_reason}), "
          f"L = {summary['final_objective']:.6g}")
    return 0


def cmd_synth(args) -> int:
    with open(args.spec) as fh:
        try:    # not JSON, not an object, an unknown field or one SynthSpec rejects
            spec = SynthSpec(**json.load(fh))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.spec}: bad synth spec: {exc}") from None
    samples, truth = generate(spec)
    out = Path(args.out)
    io.save_decomposition(out / "truth", truth.factors, truth.cores)
    names = [f"sample_{i:04d}.dten" for i in range(spec.m)]
    for name, sample in zip(names, samples):
        io.write_tensor(out / name, sample)
    io.write_manifest(out / "manifest.csv", zip(names, map(str, truth.labels.tolist())))
    print(f"wrote {out / 'manifest.csv'}: {spec.m} samples of shape {spec.shape}")
    return 0


def cmd_eval(args) -> int:
    samples, labels = io.load_samples(args.manifest)
    factors, cores, _, _ = io.load_run(args.run)
    d = dataclasses.asdict(evaluate(samples, cores, factors, labels=labels, k=args.k))
    if args.json:
        print(json.dumps(d, sort_keys=True))
    else:
        width = max(len(k) for k in d)
        for key, value in d.items():
            print(f"{key:<{width}}  {'n/a' if value is None else f'{value:.6f}'}")
    return 0


COMMANDS = {
    "ranks": cmd_ranks,
    "graph": cmd_graph,
    "decompose": cmd_decompose,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
