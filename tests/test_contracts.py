"""The input contract of the public boundary, as one table.

Each row feeds one entry point one malformed argument. The call must raise a
ValueError whose message names that argument: never a warning (each call runs
with warnings as errors), never an IndexError or any other exception, and never
a result that holds a NaN. A sample stack scaled by 1e-300 can be a legitimate
input, so there the call may return a result free of NaN instead.

The draws: complex, bool, object and string dtypes; NaN and +-inf entries;
sample stacks scaled by 10^+-300; zero extents; the wrong order; mismatched
counts; configs and rank policies that are dicts, tuples or None; norms that
are bools, strings, NaN or negative; neighbour counts that are strings, None,
bools or 0; corrupt DTEN
bytes, run files and manifests, and tensors write_tensor cannot write. The CLI's
ranks, graph, decompose and eval must end such inputs with exit code 1 and one
"error:" line.
"""

import contextlib
import dataclasses
import io as stdio
import math
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtucker import (
    SolverConfig,
    SynthSpec,
    WeightGraph,
    build_graph,
    evaluate,
    generate,
    mode_product,
    multi_mode_product,
    nearest_centroid,
    neighbor_preservation,
    objective,
    qf,
    relative_error,
    select_ranks,
    soft_threshold,
    solve,
    stationarity_residual,
    sym_eig,
    thin_svd,
    unfold,
    update_factor,
)
from mrtucker.cli import main
from mrtucker.io import load_run, load_samples, read_tensor, save_run, write_manifest, write_tensor

CONFIG = SolverConfig(max_iter=2)
X, TRUTH = generate(SynthSpec(m=12, shape=(6, 5, 4), ranks=(3, 3, 4), seed=1))
GRAPH = build_graph(X, 3)
RESULT = solve(X, GRAPH, (3, 3, 4), CONFIG)
PREV = solve(X, GRAPH, (3, 3, 4), SolverConfig(max_iter=1))     # the state a sweep before
VALID = {"samples": X, "cores": RESULT.cores, "factors": RESULT.factors, "graph": GRAPH,
         "labels": TRUTH.labels, "vals": GRAPH.vals, "config": CONFIG, "policy": None,
         "tensor": X[0], "matrix": RESULT.factors.u1, "symmetric": X[0, 0] @ X[0, 0].T,
         "n": 1, "prev_cores": PREV.cores, "prev_factors": PREV.factors,
         "norm_x": float(np.linalg.norm(X)), "x": RESULT.cores, "tau": np.array(1e-4), "k": 3}

# each entry point, called with VALID but for the arguments given
ENTRIES = {
    "select_ranks": lambda a: select_ranks(a["samples"], a["policy"]),
    "build_graph": lambda a: build_graph(a["samples"], 3),
    "solve": lambda a: solve(a["samples"], a["graph"], (3, 3, 4), a["config"]),
    "objective": lambda a: objective(a["samples"], a["cores"], a["factors"], a["graph"],
                                     a["config"]),
    "stationarity_residual": lambda a: stationarity_residual(
        a["samples"], a["cores"], a["factors"], a["graph"], a["config"]),
    "update_factor": lambda a: update_factor(a["samples"], a["cores"], a["factors"], a["n"]),
    "evaluate": lambda a: evaluate(a["samples"], a["cores"], a["factors"], a["labels"], a["k"]),
    "neighbor_preservation": lambda a: neighbor_preservation(a["samples"], a["cores"], 3),
    "nearest_centroid": lambda a: nearest_centroid(a["cores"], a["labels"]),
    "WeightGraph": lambda a: WeightGraph(m=GRAPH.m, rows=GRAPH.rows, cols=GRAPH.cols,
                                         vals=a["vals"], k=3, strategy="binary"),
    "unfold": lambda a: unfold(a["tensor"], 1),
    "mode_product": lambda a: mode_product(a["tensor"], a["matrix"].T, 0),
    "multi_mode_product": lambda a: multi_mode_product(a["tensor"], [a["matrix"]],
                                                       transpose=True),
    "qf": lambda a: qf(a["matrix"]),
    "thin_svd": lambda a: thin_svd(a["matrix"]),
    "sym_eig": lambda a: sym_eig(a["symmetric"]),
    "relative_error": lambda a: relative_error(a["prev_cores"], a["prev_factors"], a["cores"],
                                               a["factors"], a["norm_x"]),
    "soft_threshold": lambda a: soft_threshold(a["x"], a["tau"]),
}
ARRAYS = ["unfold", "mode_product", "multi_mode_product", "qf", "thin_svd", "sym_eig"]

# what a message must say to name each argument
NAMES = {"samples": "sample", "cores": "core", "factors": r"factor|U[123]", "graph": "graph",
         "labels": "label", "vals": r"vals|edge", "config": "config", "policy": "policy",
         "tensor": "tensor", "matrix": "matrix", "symmetric": "matrix", "n": r"\bn\b",
         "prev_cores": "core", "prev_factors": r"factor|U[123]", "norm_x": "norm_x",
         "x": r"\bx\b", "tau": "tau", "k": r"\bk\b"}


# ---- draws: (value, data) -> the malformed value

def complex_(v, data):
    return v + 1j * data.draw(st.sampled_from([0.0, 1e-3]))    # a lossless cast is no excuse


def bool_(v, data):
    return v > 0


def object_(v, data):
    return v.astype(object)


def string(v, data):
    return v.astype(str)


def non_finite(v, data):
    v = np.array(v, dtype=np.float64)
    v.flat[data.draw(st.integers(0, v.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    return v


def scaled(v, data):
    # 1e300 overflows ||X||^2; 1e-300 underflows every square, yet is a stack: the graph
    # tests take such stacks, so a NaN-free result may stand
    return v * 10.0 ** data.draw(st.sampled_from([300, -300]))


def zero_extent(v, data):
    return np.take(v, np.empty(0, dtype=np.intp), axis=data.draw(st.integers(0, v.ndim - 1)))


def wrong_order(v, data):
    return data.draw(st.sampled_from([v[..., 0], v[..., None]]))


def scalar(v, data):
    return v.reshape(-1)[0]


def count(v, data):
    return v[:-data.draw(st.integers(1, 3))]


def non_orthonormal(u, data):
    return u * data.draw(st.sampled_from([2.0, 1.0 + 1e-6]))


def dict_(v, data):
    return data.draw(st.sampled_from([{}, {"gamma": 1.0}]))    # {} must not mean the defaults


def tuple_(v, data):
    return (0.9,) * 3


def none(v, data):
    return None


def too_large(v, data):
    return 5


def negative(v, data):
    return -1


def float_(v, data):
    return float(v)


def text(v, data):
    return str(v)


def nan(v, data):
    return math.nan


def zero(v, data):
    return 0


def in_a_factor(draw):
    def replace(factors, data):
        n = data.draw(st.integers(0, 2))
        return factors._replace(**{f"u{n + 1}": draw(factors[n], data)})
    replace.__name__ = draw.__name__
    return replace


def shorter_graph(graph, data):
    return build_graph(X[:-1], 3)


DTYPES = [complex_, bool_, object_, string]
SOLVER = ["objective", "stationarity_residual", "update_factor", "evaluate"]

# (entry, argument, draw): the table
CASES = (
    # sample stacks: every stage that takes them
    [(e, "samples", d) for e in ENTRIES
     if e not in ("nearest_centroid", "WeightGraph", "relative_error", "soft_threshold",
                  *ARRAYS)
     for d in DTYPES + [non_finite, scaled, zero_extent, wrong_order]]
    + [(e, "samples", count) for e in ["solve", "neighbor_preservation"] + SOLVER]
    # core stacks: of fixed order for the solver's checks, of any per-sample shape for the metrics
    + [(e, "cores", d) for e in SOLVER
       for d in DTYPES + [non_finite, zero_extent, wrong_order, count]]
    + [(e, "cores", d) for e in ["neighbor_preservation", "nearest_centroid"]
       for d in DTYPES + [non_finite, zero_extent, scalar, count]]
    # one factor of three
    + [(e, "factors", in_a_factor(d)) for e in SOLVER
       for d in DTYPES + [non_finite, wrong_order, count]]
    + [("stationarity_residual", "factors", in_a_factor(non_orthonormal))]
    + [(e, "graph", shorter_graph) for e in ["solve", "objective", "stationarity_residual"]]
    + [(e, "labels", count) for e in ["evaluate", "nearest_centroid"]]
    + [("WeightGraph", "vals", d)
       for d in DTYPES + [non_finite, zero_extent, wrong_order, count]]
    # the configs: None means the defaults where the argument is optional
    + [("select_ranks", "policy", d) for d in [dict_, tuple_]]
    + [("solve", "config", dict_)]
    + [(e, "config", d) for e in ["objective", "stationarity_residual"] for d in [dict_, none]]
    # the tensor and linear-algebra names
    + [(e, "tensor", d) for e in ["unfold", "mode_product", "multi_mode_product"] for d in DTYPES]
    + [(e, "matrix", d) for e in ["mode_product", "multi_mode_product", "qf", "thin_svd"]
       for d in DTYPES]
    + [("sym_eig", "symmetric", d) for d in DTYPES]
    # a mode index: an integer 0-2, not a bool (True would be taken as 1, U2's update)
    + [("update_factor", "n", d) for d in [too_large, float_, negative, bool_]]
    # relative_error's two states and norm_x: every sweep calls it, so its checks are O(1)
    # and NaN or inf entries are named from a non-finite result
    + [("relative_error", a, d) for a in ["prev_cores", "cores"]
       for d in DTYPES + [non_finite, wrong_order, count]]
    + [("relative_error", a, in_a_factor(d)) for a in ["prev_factors", "factors"]
       for d in DTYPES + [non_finite, wrong_order, count]]
    + [("relative_error", "norm_x", d) for d in [bool_, text, nan, negative]]
    # the soft-threshold: real entries, and a finite threshold >= 0 (a scalar or an array)
    + [("soft_threshold", "x", d) for d in DTYPES]
    + [("soft_threshold", "tau", d) for d in DTYPES + [non_finite, negative]]
    # evaluate's neighbour count: an integer >= 1, clamped to M - 1 (a string or None once
    # raised a TypeError from the clamp)
    + [("evaluate", "k", d) for d in [text, none, bool_, zero]]
)


def nan_free(result) -> bool:
    """No number in result (arrays, numbers, and tuples, lists and dataclasses of them) is NaN."""
    if dataclasses.is_dataclass(result):
        return nan_free(list(vars(result).values()))
    if isinstance(result, (tuple, list)):
        return all(nan_free(r) for r in result)
    if isinstance(result, (np.ndarray, float, int, np.number)):
        return not np.isnan(np.asarray(result, dtype=np.float64)).any()
    return True


def check(call, name: str, may_pass: bool = False) -> None:
    """call() raises a ValueError whose message matches name, or, where may_pass, returns a
    result free of NaN. Warnings raise, so a warning fails the contract."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except ValueError as exc:
            assert re.search(name, str(exc)), f"the message does not name {name!r}: {exc}"
            return
    assert may_pass, f"returned {result!r} instead of raising a ValueError"
    assert nan_free(result), f"returned a NaN: {result!r}"


def case_id(case) -> str:
    entry, argument, draw = case
    return f"{entry}-{argument}-{draw.__name__.rstrip('_')}"


# the four holes this suite was written to close, the zero-extent stack beside them, and the
# casts, configs and mode indices it then found: each of these cases fails at the commit
# before its fix
HOLES = {"select_ranks-samples-complex", "build_graph-samples-complex", "solve-samples-complex",
         "select_ranks-samples-zero_extent", "build_graph-samples-zero_extent",
         "WeightGraph-vals-bool", "WeightGraph-vals-complex", "nearest_centroid-cores-non_finite",
         "stationarity_residual-factors-non_orthonormal", "mode_product-tensor-complex",
         "unfold-tensor-bool", "qf-matrix-complex", "sym_eig-symmetric-string",
         "select_ranks-policy-tuple", "solve-config-dict", "objective-config-none",
         "update_factor-n-too_large", "update_factor-n-float", "update_factor-n-negative",
         "update_factor-n-bool", "relative_error-cores-complex", "relative_error-cores-count",
         "relative_error-prev_factors-non_finite", "relative_error-norm_x-nan"}
# and every row of update_factor's arrays and of soft_threshold: all but update_factor's
# scaled samples, whose finite result may stand
BROKEN = ["complex", "bool", "object", "string", "non_finite", "wrong_order", "count"]
HOLES |= ({f"update_factor-{a}-{d}" for a in ["samples", "cores", "factors"] for d in BROKEN}
          | {"update_factor-samples-zero_extent", "update_factor-cores-zero_extent"}
          | {f"soft_threshold-{a}-{d}" for a in ["x", "tau"] for d in BROKEN[:4]}
          | {"soft_threshold-tau-non_finite", "soft_threshold-tau-negative"}
          | {"evaluate-k-text", "evaluate-k-none"})


def test_the_table_names_every_hole():
    assert HOLES <= {case_id(c) for c in CASES}


@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(max_examples=8)
@given(data=st.data())
def test_malformed_argument_is_a_value_error_naming_it(case, data):
    entry, argument, draw = case
    args = dict(VALID, **{argument: draw(VALID[argument], data)})
    check(lambda: ENTRIES[entry](args), NAMES[argument], may_pass=draw is scaled)


# ---- files: write_tensor, read_tensor, load_samples, load_run

def corrupt(raw: bytes, data) -> bytes:
    """raw, a DTEN file's bytes, with its header or its length broken."""
    kind = data.draw(st.sampled_from(["truncated", "magic", "version", "order", "extent",
                                      "trailing"]))
    if kind == "truncated":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if kind == "magic":
        return b"NETD" + raw[4:]
    if kind == "version":
        return raw[:4] + struct.pack("<I", 2) + raw[8:]
    if kind == "order":
        order = data.draw(st.sampled_from([0, 2, 4, 2 ** 31]))
        return raw[:8] + struct.pack("<I", order) + raw[12:]
    if kind == "extent":
        extent = data.draw(st.sampled_from([0, 7, 2 ** 62]))
        return raw[:12] + struct.pack("<Q", extent) + raw[20:]
    return raw + bytes(data.draw(st.integers(1, 16)))


def write_samples(where: Path, samples) -> Path:
    names = [f"s{i}.dten" for i in range(len(samples))]
    for name, x in zip(names, samples):
        write_tensor(where / name, x)
    write_manifest(where / "manifest.csv", [(name, None) for name in names])
    return where / "manifest.csv"


def write_non_real_tensor(where: Path, data):
    # refused before the file is opened, so none appears
    draw = data.draw(st.sampled_from(DTYPES))
    path = where / "t.dten"
    check(lambda: write_tensor(path, draw(X[0], data)), re.escape(str(path)))
    assert not path.exists()


def read_corrupt_tensor(where: Path, data):
    write_tensor(where / "t.dten", X[0])
    (where / "t.dten").write_bytes(corrupt((where / "t.dten").read_bytes(), data))
    check(lambda: read_tensor(where / "t.dten"), re.escape(str(where / "t.dten")))


def load_samples_with_a_corrupt_row(where: Path, data):
    manifest = write_samples(where, X[:4])
    bad = where / f"s{data.draw(st.integers(0, 3))}.dten"   # the first read, or a readv's
    bad.write_bytes(corrupt(bad.read_bytes(), data))
    check(lambda: load_samples(manifest), re.escape(str(bad)))


def load_samples_of_two_shapes(where: Path, data):
    manifest = write_samples(where, X[:4])
    row = data.draw(st.integers(1, 3))
    write_tensor(where / f"s{row}.dten", wrong_order(X[row], data))
    check(lambda: load_samples(manifest), rf"row {row + 1} \(s{row}\.dten\) has shape")


def load_malformed_manifest(where: Path, data):
    write_samples(where, X[:2])
    text = data.draw(st.sampled_from(["", "\n\n", ",label\n", 's0.dten,"open\n',
                                      's0.dten,"a"b\n']))
    (where / "manifest.csv").write_text(text)
    check(lambda: load_samples(where / "manifest.csv"), re.escape(str(where / "manifest.csv")))


def save_good_run(where: Path) -> Path:
    save_run(where / "run", RESULT, {"iterations": RESULT.n_iter})
    return where / "run"


def malform_run(run: Path, data) -> str:
    """Break one drawn file of a run directory; returns what a message must say to name it."""
    kind = data.draw(st.sampled_from(["bytes", "array", "records"]))
    if kind == "records":
        name, text = data.draw(st.sampled_from([("summary.json", "{"), ("trace.csv", "iter,L\n1\n"),
                                                ("trace.csv", "iter,L\n1,x\n")]))
        (run / name).write_text(text)
        return re.escape(str(run / name))
    bad = run / data.draw(st.sampled_from(["u1.dten", "u2.dten", "u3.dten", "cores.dten"]))
    if kind == "bytes":
        bad.write_bytes(corrupt(bad.read_bytes(), data))
        return re.escape(str(bad))
    write_tensor(bad, data.draw(st.sampled_from([non_finite, wrong_order]))(read_tensor(bad), data))
    return rf"{re.escape(bad.name)}|factors must be matrices"


def load_malformed_run(where: Path, data):
    run = save_good_run(where)
    name = malform_run(run, data)
    check(lambda: load_run(run), name)


FILE_CASES = [write_non_real_tensor, read_corrupt_tensor, load_samples_with_a_corrupt_row,
              load_samples_of_two_shapes, load_malformed_manifest, load_malformed_run]


@pytest.mark.parametrize("case", FILE_CASES, ids=lambda c: c.__name__)
@settings(max_examples=12)
@given(data=st.data())
def test_malformed_file_is_a_value_error_naming_it(case, data):
    with tempfile.TemporaryDirectory() as where:
        case(Path(where), data)


# ---- the CLI: exit code 1 and one "error:" line

def run_cli(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def malformed_samples(where: Path, data) -> Path:
    """A manifest over X's samples, one of them malformed in a drawn way."""
    manifest = write_samples(where, X)
    row = data.draw(st.integers(0, len(X) - 1))
    kind = data.draw(st.sampled_from(["non_finite", "huge", "matrices", "shape", "bytes"]))
    if kind == "non_finite":
        write_tensor(where / f"s{row}.dten", non_finite(X[row], data))
    elif kind == "huge":            # ||X||^2 beyond float64
        write_tensor(where / f"s{row}.dten", X[row] * 1e300)
    elif kind == "matrices":
        write_samples(where, X[..., 0])
    elif kind == "shape":
        write_tensor(where / f"s{row}.dten", X[row, :-1])
    else:
        (where / f"s{row}.dten").write_bytes(corrupt((where / f"s{row}.dten").read_bytes(), data))
    return manifest


@pytest.mark.parametrize("command", ["ranks", "graph", "decompose", "eval", "eval-run"])
@settings(max_examples=10)
@given(data=st.data())
def test_cli_on_malformed_input_exits_1_with_one_error_line(command, data):
    # every command on a malformed sample set; eval-run: eval on a malformed run directory
    with tempfile.TemporaryDirectory() as where:
        run = save_good_run(Path(where))
        if command == "eval-run":
            manifest = str(write_samples(Path(where), X))
            malform_run(run, data)
        else:
            manifest = str(malformed_samples(Path(where), data))
        argv = {"ranks": ["ranks", manifest],
                "graph": ["graph", manifest, "--k", "3", "--out", f"{where}/edges.csv"],
                "decompose": ["decompose", manifest, "--k", "3", "--max-iter", "2",
                              "--out", f"{where}/out"]}.get(
            command, ["eval", "--run", str(run), "--manifest", manifest])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
