"""CLI behaviour: subcommand outputs, artifact layout, exit codes, and the
byte-identical determinism contract."""

import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import mrtucker
from mrtucker import SolverConfig, cli
from mrtucker.cli import main
from mrtucker.io import load_run, read_tensor, write_tensor


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def synth_dir(tmp_path):
    spec = {
        "m": 12, "shape": [8, 8, 4], "ranks": [3, 3, 4], "sparsity": 0.5,
        "n_clusters": 3, "separation": 5.0, "noise": 0.01, "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def test_synth_writes_samples_and_truth(synth_dir):
    assert (synth_dir / "manifest.csv").exists()
    assert len(list(synth_dir.glob("sample_*.dten"))) == 12
    assert (synth_dir / "truth" / "u1.dten").exists()
    assert sorted(p.name for p in (synth_dir / "truth").iterdir()) == \
        ["cores.dten", "u1.dten", "u2.dten", "u3.dten"]
    assert read_tensor(synth_dir / "truth" / "cores.dten").shape == (12, 3, 3, 4)


def test_ranks_command(synth_dir, capsys):
    code, out, _ = run_cli(["ranks", str(synth_dir / "manifest.csv"),
                            "--sigma", "0.95,0.95,0.99", "--free-r3"], capsys)
    assert code == 0
    parts = [int(p) for p in out.split()]
    assert len(parts) == 3 and all(1 <= p <= 8 for p in parts)
    # fixed-R3 default pins the third rank to the full extent
    code, out, _ = run_cli(["ranks", str(synth_dir / "manifest.csv")], capsys)
    assert code == 0 and int(out.split()[2]) == 4


def test_graph_command(synth_dir, tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    code, out, _ = run_cli(["graph", str(synth_dir / "manifest.csv"),
                            "--k", "3", "--weights", "heat:100", "--out", str(edges)], capsys)
    assert code == 0 and str(edges) in out
    lines = edges.read_text().strip().splitlines()
    assert lines[0] == "i,j,w"
    for line in lines[1:]:
        i, j, w = line.split(",")
        assert int(i) < int(j) and 0.0 < float(w) <= 1.0


def test_decompose_run_layout(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    code, out, _ = run_cli(["decompose", str(synth_dir / "manifest.csv"),
                            "--k", "3", "--max-iter", "40", "--out", str(run)], capsys)
    assert code == 0
    assert sorted(p.name for p in run.iterdir()) == \
        ["cores.dten", "summary.json", "trace.csv", "u1.dten", "u2.dten", "u3.dten"]
    assert read_tensor(run / "cores.dten").shape[0] == 12
    summary = json.loads((run / "summary.json").read_text())
    assert summary["config"] == dict(dataclasses.asdict(SolverConfig()), max_iter=40)
    assert summary["ranks"][2] == 4
    assert summary["stop_reason"] in ("converged", "max_iter")
    assert len(summary["stationarity"]["factor_residuals"]) == 3
    header = (run / "trace.csv").read_text().splitlines()[0]
    assert header == ("iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms,"
                      "t_factor_ms,t_core_ms,t_eval_ms,t_other_ms")


def test_eval_of_run_without_core_stack_exits_1(synth_dir, tmp_path, capsys):
    # a run directory with no cores.dten (one of the old per-sample core_<n>.dten
    # layout, say) ends eval in one "error:" line naming the missing file
    run = tmp_path / "old_run"
    run.mkdir()
    for n in (1, 2, 3):
        write_tensor(run / f"u{n}.dten", np.eye(4)[:, :3])
    for i in range(2):
        write_tensor(run / f"core_{i}.dten", np.zeros((3, 3, 3)))
    code, out, err = run_cli(["eval", "--run", str(run),
                              "--manifest", str(synth_dir / "manifest.csv")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(run / "cores.dten") in err and err.count("\n") == 1


def test_decompose_deterministic_byte_identical(synth_dir, tmp_path, capsys):
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, *_ = run_cli(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                            "--deterministic", "--out", str(out)], capsys)
        assert code == 0
        runs.append(out)
    for fname in ["u1.dten", "u2.dten", "u3.dten", "cores.dten", "trace.csv", "summary.json"]:
        assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes()
    assert json.loads((runs[0] / "summary.json").read_text())["wall_seconds"] == 0.0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_decompose_deterministic_byte_identical_at_fixed_blas_threads(tmp_path, threads):
    # two child processes at the same BLAS thread count write the same bytes, on the
    # default graph and on k=48 heat-kernel weights, whose core sweep batches rows of
    # non-unit weights. Across thread counts trace.csv's fit_term and RE can differ in
    # the last digits: a threaded dot product sums in another order
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 400, "seed": 0}))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    src = str(Path(mrtucker.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for graph in ([], ["--k", "48", "--weights", "heat:5000"]):
        runs = [tmp_path / f"{name}{len(graph)}" for name in ("r1", "r2")]
        for out in runs:
            subprocess.run([sys.executable, "-m", "mrtucker.cli", "decompose",
                            str(tmp_path / "data" / "manifest.csv"), *graph, "--deterministic",
                            "--out", str(out)], env=env, check=True, capture_output=True)
        for fname in ["u1.dten", "u2.dten", "u3.dten", "cores.dten", "trace.csv",
                      "summary.json"]:
            assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes(), fname


def test_decompose_trace_time_columns(synth_dir, tmp_path, capsys):
    # trace.csv's four phase columns are present and non-negative and add up to
    # wall_ms; --deterministic zeroes all five time columns
    phases = ["t_factor_ms", "t_core_ms", "t_eval_ms", "t_other_ms"]
    for flags in ([], ["--deterministic"]):
        run = tmp_path / f"run{len(flags)}"
        assert main(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                     "--max-iter", "5", *flags, "--out", str(run)]) == 0
        rows = load_run(run)[3]
        assert rows
        for row in rows:
            assert all(row[name] >= 0.0 for name in phases)
            assert sum(row[name] for name in phases) == pytest.approx(row["wall_ms"],
                                                                      rel=1e-12)
            if flags:
                assert [row[name] for name in ["wall_ms", *phases]] == [0.0] * 5


def test_decompose_summary_config_and_no_seed(synth_dir, tmp_path, capsys):
    # --deterministic is a run setting, not a solver field; --seed is gone
    run = tmp_path / "run"
    assert main(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                 "--deterministic", "--out", str(run)]) == 0
    summary = json.loads((run / "summary.json").read_text())
    assert summary["deterministic"] is True
    assert list(summary["config"]) == ["beta", "gamma", "max_iter", "zeta"]
    with pytest.raises(SystemExit) as exc:
        main(["decompose", str(synth_dir / "manifest.csv"), "--seed", "3",
              "--out", str(run)])
    assert exc.value.code == 2


def test_eval_command(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(["eval", "--run", str(run),
                            "--manifest", str(synth_dir / "manifest.csv"),
                            "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"reconstruction_re", "core_sparsity", "neighbor_preservation",
                           "nearest_centroid_accuracy"}
    assert report["nearest_centroid_accuracy"] >= 0.5
    # table form
    code, out, _ = run_cli(["eval", "--run", str(run),
                            "--manifest", str(synth_dir / "manifest.csv")], capsys)
    assert code == 0 and "reconstruction_re" in out


def test_eval_rejects_partly_labelled_manifest(tmp_path, capsys):
    # unlabelled rows beside labelled ones are not a class of their own: eval names them
    # and exits 1. With no label at all, the accuracy is n/a
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 12, "seed": 1, "n_clusters": 2}))
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    rows = (data / "manifest.csv").read_text().splitlines()
    partly, none = data / "partly.csv", data / "none.csv"
    partly.write_text("".join(r.split(",")[0] + "\n" if i >= 9 else r + "\n"
                              for i, r in enumerate(rows)))
    none.write_text("".join(r.split(",")[0] + "\n" for r in rows))
    assert main(["decompose", str(data / "manifest.csv"), "--max-iter", "3",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(["eval", "--run", str(run), "--manifest", str(partly)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {partly}: samples [9, 10, 11] have no label, but 9 others do\n"
    code, out, _ = run_cli(["eval", "--run", str(run), "--manifest", str(none), "--json"],
                           capsys)
    assert code == 0 and json.loads(out)["nearest_centroid_accuracy"] is None


def test_eval_rejects_manifest_that_does_not_match_run(synth_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                 "--max-iter", "3", "--out", str(run)]) == 0
    short = synth_dir / "short.csv"
    lines = (synth_dir / "manifest.csv").read_text().splitlines()
    short.write_text("\n".join(lines[:10]) + "\n")
    capsys.readouterr()
    code, _, err = run_cli(["eval", "--run", str(run), "--manifest", str(short)], capsys)
    assert code == 1
    assert err == "error: sample and core counts differ: 10 samples, 12 cores\n"


@pytest.mark.filterwarnings("error")
def test_non_finite_samples_exit_1(synth_dir, tmp_path, capsys):
    # NaN, inf and overflowing data end in one "error:" line naming the
    # sample; warnings are errors here, so none may come first. eval reads
    # a run made from the good samples
    manifest = str(synth_dir / "manifest.csv")
    assert run_cli(["decompose", manifest, "--max-iter", "5", "--out", str(tmp_path / "ok")],
                   capsys)[0] == 0
    good = read_tensor(synth_dir / "sample_0005.dten")
    nan, inf = good.copy(), good.copy()
    nan[0, 0, 0], inf[0, 0, 0] = np.nan, np.inf
    for bad in (nan, inf, good * 1e200):
        write_tensor(synth_dir / "sample_0005.dten", bad)
        for cmd in (["ranks", manifest],
                    ["graph", manifest, "--k", "3", "--out", str(tmp_path / "edges.csv")],
                    ["decompose", manifest, "--out", str(tmp_path / "r")],
                    ["eval", "--run", str(tmp_path / "ok"), "--manifest", manifest]):
            code, _, err = run_cli(cmd, capsys)
            assert code == 1, cmd
            assert err.startswith("error: samples are not finite") and err.count("\n") == 1
            assert "at samples [5]" in err, err


def test_eval_of_matrix_samples_exits_1(synth_dir, tmp_path, capsys):
    # samples that are matrices, not order-3 tensors, end eval in one "error:" line
    run = tmp_path / "run"
    assert main(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                 "--max-iter", "2", "--out", str(run)]) == 0
    flat = tmp_path / "flat"
    flat.mkdir()
    for i in range(12):
        write_tensor(flat / f"m_{i}.dten", np.full((6, 6), float(i)))
    (flat / "manifest.csv").write_text("".join(f"m_{i}.dten\n" for i in range(12)))
    capsys.readouterr()
    code, out, err = run_cli(["eval", "--run", str(run),
                              "--manifest", str(flat / "manifest.csv")], capsys)
    assert code == 1 and out == ""
    assert err == ("error: expected a nonempty stack of order-3 samples of real numbers, "
                   "got float64 of shape (12, 6, 6)\n")


@pytest.mark.filterwarnings("error")
def test_eval_non_finite_run_exit_1(synth_dir, tmp_path, capsys):
    # an inf in the run's core stack ends eval in one "error:" line naming the file
    manifest, run = str(synth_dir / "manifest.csv"), tmp_path / "run"
    assert run_cli(["decompose", manifest, "--max-iter", "5", "--out", str(run)], capsys)[0] == 0
    cores = read_tensor(run / "cores.dten")
    cores[3, 0, 0, 0] = np.inf
    write_tensor(run / "cores.dten", cores)
    code, out, err = run_cli(["eval", "--run", str(run), "--manifest", manifest], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {run}: non-finite entries (NaN or inf) in cores.dten\n"


@pytest.fixture()
def fake_threadpoolctl(monkeypatch):
    """A stand-in threadpoolctl module; events records the limit requests,
    the solve, the stationarity residual and the limiter's exit (as "unregister")
    in the order they happen."""
    events = []

    class Limiter:
        def __init__(self, limits):
            events.append(("limit", limits))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append(("unregister",))

    def solve(*args, **kwargs):
        events.append(("solve",))
        return real_solve(*args, **kwargs)

    def stationarity_residual(*args, **kwargs):
        events.append(("residual",))
        return real_residual(*args, **kwargs)

    real_solve, real_residual = cli.solve, cli.stationarity_residual
    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(cli, "stationarity_residual", stationarity_residual)
    module = types.ModuleType("threadpoolctl")
    module.threadpool_limits = Limiter
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    return events


@pytest.mark.parametrize("flags, limit", [(["--deterministic"], 1), (["--threads", "3"], 3),
                                          (["--deterministic", "--threads", "3"], 1),
                                          ([], None)])
def test_decompose_thread_limit_wraps_solve(synth_dir, tmp_path, fake_threadpoolctl,
                                            flags, limit, capsys):
    code, _, err = run_cli(["decompose", str(synth_dir / "manifest.csv"), "--max-iter", "2",
                            *flags, "--out", str(tmp_path / "run")], capsys)
    assert code == 0 and err == ""
    # the cap holds from before the solve until after the residuals
    expected = [("solve",), ("residual",)]
    if limit:
        expected = [("limit", limit), *expected, ("unregister",)]
    assert fake_threadpoolctl == expected
    # the summary records the cap applied, not the --threads value
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["threads"] == limit


@pytest.mark.parametrize("flags", [["--deterministic"], ["--threads", "3"]])
def test_thread_limit_warning_names_the_flag(synth_dir, tmp_path, monkeypatch, flags, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)     # import fails
    code, _, err = run_cli(["decompose", str(synth_dir / "manifest.csv"), "--max-iter", "2",
                            *flags, "--out", str(tmp_path / "run")], capsys)
    assert code == 0
    assert err == f"warning: threadpoolctl not installed, {flags[0]} ignored\n"
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["threads"] is None


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["graph", "m.csv", "--k", "2", "--weights", "bogus", "--out", "e.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text, parsed", [("binary", "binary"), ("cosine", "cosine"),
                                           ("heat", "heat_kernel"), ("heat:abc", None)])
@pytest.mark.parametrize("command", ["decompose", "graph"])
def test_weights_parse(command, text, parsed, capsys):
    # the three names take the default bandwidth; a bandwidth that is not a number is
    # a usage error naming it
    args = [command, "m.csv", "--k", "2", "--weights", text, "--out", "o"]
    if parsed is None:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(args)
        assert exc.value.code == 2
        assert "bad heat kernel bandwidth in 'heat:abc'" in capsys.readouterr().err
    else:
        assert cli.build_parser().parse_args(args).weights == (parsed, cli.DEFAULT_DELTA)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_threads_must_be_positive(value, capsys):
    # a cap of 0 or fewer BLAS threads is a usage error naming the value, not a
    # value passed on to threadpool_limits and recorded in summary.json
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "m.csv", "--threads", value, "--out", "run"])
    assert exc.value.code == 2
    assert f"argument --threads: expected a positive integer, got '{value}'" in \
        capsys.readouterr().err


def test_runtime_error_exit_code_1(tmp_path, capsys):
    code, _, err = run_cli(["ranks", str(tmp_path / "missing.csv")], capsys)
    assert code == 1 and "error:" in err


def test_sigma_parse_rejects_wrong_arity(capsys):
    for command in (["ranks"], ["decompose", "--out", "o"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "m.csv", "--sigma", "0.9,0.9"])
        assert exc.value.code == 2
        assert "expected three comma-separated thresholds" in capsys.readouterr().err


def test_documented_failures_exit_code_1(synth_dir, tmp_path, capsys):
    # a malformed manifest, a corrupt DTEN file and a bad synth spec each end
    # in one "error:" line and exit code 1, not a traceback
    bad_rows = tmp_path / "rows.csv"         # second row's tensor has another shape
    bad_rows.write_text("data/sample_0000.dten\nother.dten\n")
    write_tensor(tmp_path / "other.dten", np.ones((2, 2, 2)))
    corrupt = tmp_path / "corrupt.csv"
    (tmp_path / "bad.dten").write_bytes(b"DTEN" + b"\x01\x00")
    corrupt.write_text("bad.dten\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    for manifest in (bad_rows, corrupt, empty):
        for cmd in (["ranks", str(manifest)],
                    ["decompose", str(manifest), "--out", str(tmp_path / "run")]):
            code, _, err = run_cli(cmd, capsys)
            assert code == 1 and err.startswith("error:"), (cmd, err)
    for spec in ('{"m": "many"}', '{"shape": 3}', '{"bogus": 1}', "[1, 2]"):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, _, err = run_cli(["synth", "--spec", str(path), "--out", str(tmp_path)], capsys)
        assert code == 1 and err.startswith("error:"), (spec, err)



@pytest.mark.parametrize("spec, message", [
    ('{"shape": [16, 16], "ranks": [5, 5], "m": 5, "n_clusters": 2}',
     "shape must be three positive ints, got [16, 16]"),
    ('{"ranks": [5, 0, 6]}', "ranks must be three positive ints, got [5, 0, 6]"),
    ('{"shape": [16, 16, true]}', "shape must be three positive ints, got [16, 16, True]"),
    ('{"m": 2.5, "n_clusters": 2}', "m must be an int, got 2.5"),
    ('{"n_clusters": "3"}', "n_clusters must be an int, got '3'"),
    ('{"seed": null}', "seed must be an int, got None"),
    ('{"seed": -1}', "seed must be nonnegative, got -1"),
    ('{"separation": "x"}', "separation must be a finite real number, got 'x'"),
    ('{"noise": NaN}', "noise must be a finite real number, got nan"),
    ('{"sparsity": false}', "sparsity must be a finite real number, got False"),
    ('{"bogus": 1}', "unexpected keyword argument 'bogus'"),
    ("[1, 2]", "must be a mapping"),
    ('{"m": ', "Expecting value"),
])
def test_synth_rejects_malformed_spec(tmp_path, capsys, spec, message):
    # one "error:" line naming the spec file, exit 1, and nothing written
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run_cli(["synth", "--spec", str(path), "--out", str(tmp_path / "out")],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: bad synth spec: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_decompose_rejects_manifest_row_without_path(synth_dir, tmp_path, capsys, monkeypatch,
                                                     sub):
    # a label with a blank path exits 1 naming the manifest and its line, not with the
    # OSError of opening '' or the manifest's own directory
    manifest = tmp_path / sub / "rows.csv"
    manifest.parent.mkdir(exist_ok=True)
    manifest.write_text(f"{synth_dir / 'data' / 'sample_0000.dten'},a\n  ,b\n")
    monkeypatch.chdir(tmp_path)
    rel = str(manifest.relative_to(tmp_path))
    code, _, err = run_cli(["decompose", rel, "--out", str(tmp_path / "run")], capsys)
    assert code == 1 and err == f"error: {rel}: line 2: empty sample path\n"
    assert not (tmp_path / "run").exists()

def test_programming_errors_are_not_mapped_to_exit_1(monkeypatch):
    def broken(args):
        raise TypeError("a bug")
    monkeypatch.setattr(cli, "cmd_ranks", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["ranks", "m.csv"])
