"""CLI behaviour: subcommand outputs, artifact layout, exit codes, and the
byte-identical determinism contract."""

import json

import numpy as np
import pytest

from mrtucker import cli
from mrtucker.cli import main
from mrtucker.io import write_tensor


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
    assert len(list((synth_dir / "truth").glob("core_*.dten"))) == 12


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
    for name in ("u1.dten", "u2.dten", "u3.dten", "trace.csv", "summary.json"):
        assert (run / name).exists()
    assert len(list(run.glob("core_*.dten"))) == 12
    summary = json.loads((run / "summary.json").read_text())
    assert summary["config"]["gamma"] == 1e4
    assert summary["ranks"][2] == 4
    assert summary["stop_reason"] in ("converged", "max_iter")
    assert len(summary["stationarity"]["factor_residuals"]) == 3
    header = (run / "trace.csv").read_text().splitlines()[0]
    assert header == "iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms"


def test_decompose_deterministic_byte_identical(synth_dir, tmp_path, capsys):
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, *_ = run_cli(["decompose", str(synth_dir / "manifest.csv"), "--k", "3",
                            "--deterministic", "--out", str(out)], capsys)
        assert code == 0
        runs.append(out)
    for fname in ["u1.dten", "u2.dten", "u3.dten", "trace.csv"] + \
            [f"core_{i:04d}.dten" for i in range(12)]:
        assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes()


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
                           "nearest_centroid_accuracy", "timing_ms"}
    assert report["nearest_centroid_accuracy"] >= 0.5
    # table form
    code, out, _ = run_cli(["eval", "--run", str(run),
                            "--manifest", str(synth_dir / "manifest.csv")], capsys)
    assert code == 0 and "reconstruction_re" in out


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


def test_programming_errors_are_not_mapped_to_exit_1(monkeypatch):
    def broken(args):
        raise TypeError("a bug")
    monkeypatch.setitem(cli.COMMANDS, "ranks", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["ranks", "m.csv"])
