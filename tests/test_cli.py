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
from mrtucker.io import read_tensor, write_tensor


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
    assert header == "iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms"


def test_old_core_files_refused_by_decompose_and_synth(synth_dir, tmp_path, capsys):
    # decompose --out and synth's truth/ refuse a directory that holds files of
    # the old core_<n>.dten layout, exit 1 and leave every file there alone
    run, data = tmp_path / "old_run", tmp_path / "old_data"
    for d in (run, data / "truth"):
        d.mkdir(parents=True)
        for i in range(2):
            write_tensor(d / f"core_{i}.dten", np.zeros((3, 3, 4)))
    code, _, err = run_cli(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                            "--max-iter", "2", "--out", str(run)], capsys)
    assert code == 1 and "2 core_<n>.dten file" in err and "core_0.dten" in err
    assert sorted(p.name for p in run.iterdir()) == ["core_0.dten", "core_1.dten"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 6, "shape": [4, 4, 2], "ranks": [2, 2, 2]}))
    code, _, err = run_cli(["synth", "--spec", str(spec), "--out", str(data)], capsys)
    assert code == 1 and "truth" in err and "core_0.dten" in err
    assert sorted(p.name for p in data.iterdir()) == ["truth"]
    assert sorted(p.name for p in (data / "truth").iterdir()) == ["core_0.dten", "core_1.dten"]


def test_decompose_deterministic_byte_identical(synth_dir, tmp_path, capsys):
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, *_ = run_cli(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                            "--deterministic", "--out", str(out)], capsys)
        assert code == 0
        runs.append(out)
    for fname in ["u1.dten", "u2.dten", "u3.dten", "cores.dten", "trace.csv"]:
        assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_decompose_deterministic_byte_identical_at_fixed_blas_threads(tmp_path, threads):
    # two child processes at the same BLAS thread count write the same bytes (the
    # summary up to its wall time), on the default graph and on k=48 heat-kernel
    # weights, whose core sweep batches rows of non-unit weights. Across thread
    # counts trace.csv's fit_term and RE can differ in the last digits: a threaded
    # dot product sums in another order
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
        for fname in ["u1.dten", "u2.dten", "u3.dten", "cores.dten", "trace.csv"]:
            assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes(), fname
        summaries = [json.loads((out / "summary.json").read_text()) for out in runs]
        for summary in summaries:
            summary.pop("wall_seconds")
        assert summaries[0] == summaries[1]


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
    the solve and the limiter's unregister() in the order they happen."""
    events = []

    class Limiter:
        def __init__(self, limits):
            events.append(("limit", limits))

        def unregister(self):
            events.append(("unregister",))

    def solve(*args, **kwargs):
        events.append(("solve",))
        return real_solve(*args, **kwargs)

    real_solve = cli.solve
    monkeypatch.setattr(cli, "solve", solve)
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
    expected = [("limit", limit), ("solve",), ("unregister",)] if limit else [("solve",)]
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


def test_runtime_error_exit_code_1(tmp_path, capsys):
    code, _, err = run_cli(["ranks", str(tmp_path / "missing.csv")], capsys)
    assert code == 1 and "error:" in err


def test_sigma_parse_rejects_wrong_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ranks", "m.csv", "--sigma", "0.9,0.9"])
    assert exc.value.code == 2


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
    monkeypatch.setitem(cli.COMMANDS, "ranks", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["ranks", "m.csv"])
