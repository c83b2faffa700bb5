"""On-disk tensor format, manifest loading, and run-directory round trips."""

import json
import os
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from mrtucker import (
    FactorSet,
    SolveResult,
    SolverConfig,
    SolverTrace,
    SynthSpec,
    build_graph,
    generate,
    solve,
)
from mrtucker import io as mtio
from mrtucker.solver import IterationRecord
from mrtucker.io import (
    TRACE_HEADER,
    load_run,
    load_samples,
    read_tensor,
    save_run,
    write_manifest,
    write_tensor,
)
from test_tensor_properties import arrays


def test_tensor_roundtrip_orders(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(5,), (3, 4), (2, 3, 4), (2, 2, 3, 2)]:
        t = rng.standard_normal(shape)
        path = tmp_path / "t.dten"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert_array_equal(back, t)  # float64 payload survives bit-exactly


@given(st.data())
def test_tensor_write_read_roundtrip_is_bitwise(tmp_path_factory, data):
    # orders 1-4, extents >= 1, contiguous, transposed and strided inputs, and
    # every float64 (NaN, inf, -0.0, subnormals): the bits come back unchanged
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    t = data.draw(arrays(shape, elements=st.floats(width=64)))
    path = tmp_path_factory.mktemp("dten") / "t.dten"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == t.shape
    assert_array_equal(back.view(np.uint64), np.ascontiguousarray(t).view(np.uint64))


def test_write_tensor_rejects_zero_extents(tmp_path):
    # read_tensor rejects a zero extent, so write_tensor writes none
    for shape in [(0,), (0, 3), (2, 0, 4)]:
        path = tmp_path / "t.dten"
        with pytest.raises(ValueError, match="zero extent"):
            write_tensor(path, np.zeros(shape))
        assert not path.exists()


def test_tensor_header_layout(tmp_path):
    t = np.arange(6.0).reshape(2, 3, order="F")
    path = tmp_path / "t.dten"
    write_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"DTEN"
    version, order = struct.unpack("<II", raw[4:12])
    assert (version, order) == (1, 2)
    assert struct.unpack("<2Q", raw[12:28]) == (2, 3)
    payload = np.frombuffer(raw[28:], dtype="<f8")
    assert_array_equal(payload, np.arange(6.0))  # first index fastest


def test_tensor_write_is_deterministic(tmp_path):
    t = np.random.default_rng(1).standard_normal((3, 3, 3))
    a, b = tmp_path / "a.dten", tmp_path / "b.dten"
    write_tensor(a, t)
    write_tensor(b, t)
    assert a.read_bytes() == b.read_bytes()


def test_tensor_bad_files(tmp_path):
    good = tmp_path / "good.dten"
    write_tensor(good, np.ones((2, 2)))
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.dten"
    bad_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        read_tensor(bad_magic)

    bad_version = tmp_path / "version.dten"
    bad_version.write_bytes(raw[:4] + struct.pack("<I", 9) + bytes(raw[8:]))
    with pytest.raises(ValueError, match="version"):
        read_tensor(bad_version)

    truncated = tmp_path / "trunc.dten"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(truncated)

    zero_extent = tmp_path / "extent.dten"
    zero_extent.write_bytes(raw[:12] + struct.pack("<2Q", 0, 2) + bytes(raw[28:]))
    with pytest.raises(ValueError, match="extents"):
        read_tensor(zero_extent)


def test_load_samples_with_labels(tmp_path):
    rng = np.random.default_rng(2)
    rows = []
    for i in range(3):
        name = f"s{i}.dten"
        write_tensor(tmp_path / name, rng.standard_normal((2, 3, 4)))
        rows.append((name, f"c{i % 2}"))
    write_manifest(tmp_path / "manifest.csv", rows)
    samples, labels = load_samples(tmp_path / "manifest.csv")
    assert samples.shape == (3, 2, 3, 4)
    assert labels == ["c0", "c1", "c0"]


def test_load_samples_without_labels(tmp_path):
    write_tensor(tmp_path / "only.dten", np.ones((2, 2, 2)))
    write_manifest(tmp_path / "manifest.csv", [("only.dten", None)])
    samples, labels = load_samples(tmp_path / "manifest.csv")
    assert samples.shape == (1, 2, 2, 2)
    assert labels is None


def test_load_samples_shape_mismatch_names_row(tmp_path):
    write_tensor(tmp_path / "a.dten", np.ones((2, 2, 2)))
    write_tensor(tmp_path / "b.dten", np.ones((3, 2, 2)))
    write_manifest(tmp_path / "manifest.csv", [("a.dten", None), ("b.dten", None)])
    with pytest.raises(ValueError, match="row 2"):
        load_samples(tmp_path / "manifest.csv")


def test_manifest_roundtrip_quotes_commas(tmp_path):
    rows = [('a, "odd" name.dten', 'happy, open mouth'), ("plain.dten", 'say "cheese"')]
    for n, (rel, _) in enumerate(rows):
        write_tensor(tmp_path / rel, np.full((2, 2, 2), float(n)))
    write_manifest(tmp_path / "manifest.csv", rows)
    samples, labels = load_samples(tmp_path / "manifest.csv")
    assert labels == [label for _, label in rows]
    assert_array_equal(samples[:, 0, 0, 0], [0.0, 1.0])


def test_load_samples_unquoted_manifest(tmp_path):
    # hand-written rows: spaces around fields, blank lines, extra columns and a
    # missing label read as before the manifest went through the csv module
    for name in ("a.dten", "b.dten", "c.dten"):
        write_tensor(tmp_path / name, np.ones((2, 2, 2)))
    (tmp_path / "manifest.csv").write_text(
        " a.dten , happy \n\n   \nb.dten,sad,extra\r\nc.dten\n")
    samples, labels = load_samples(tmp_path / "manifest.csv")
    assert samples.shape == (3, 2, 2, 2)
    assert labels == ["happy", "sad", ""]


def test_load_samples_csv_error_names_line(tmp_path):
    # a field over the csv module's size limit is a ValueError naming its line
    (tmp_path / "manifest.csv").write_text("a.dten\n" + "x" * 200_000 + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_samples(tmp_path / "manifest.csv")


def test_load_samples_empty_manifest(tmp_path):
    (tmp_path / "manifest.csv").write_text("\n\n")
    with pytest.raises(ValueError, match="empty"):
        load_samples(tmp_path / "manifest.csv")



@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("row", [",y", "  ,y", ",", " , "])
def test_load_samples_rejects_row_without_path(tmp_path, monkeypatch, sub, row):
    # a label with an empty or blank path names the manifest and its line, whether the
    # manifest's directory is the working one ('' joins to '') or another (a directory)
    (tmp_path / sub).mkdir(exist_ok=True)
    write_tensor(tmp_path / sub / "a.dten", np.ones((2, 2, 2)))
    manifest = os.path.join(sub, "manifest.csv")
    (tmp_path / manifest).write_text(f"a.dten,x\n{row}\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"{manifest}: line 2: empty sample path")):
        load_samples(manifest)


# a good order-3 DTEN file's bytes, corrupted in each way the header checks name
LATER_ROW_FAULTS = {
    "truncated": lambda raw: raw[:-8],
    "trailing": lambda raw: raw + b"\0",
    "magic": lambda raw: b"NOPE" + raw[4:],
    "version": lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:],
    "order": lambda raw: raw[:8] + struct.pack("<I", 2) + raw[12:],
    "huge_order": lambda raw: raw[:8] + struct.pack("<I", 2 ** 31) + raw[12:],
    "short_header": lambda raw: raw[:10],
    "empty": lambda raw: b"",
}


@pytest.mark.parametrize("fault", sorted(LATER_ROW_FAULTS))
def test_load_samples_later_row_fault_is_read_tensors_error(tmp_path, fault):
    # a later row read into the fixed-size buffers and found wrong raises exactly the
    # error read_tensor gives for that file
    rng = np.random.default_rng(1)
    for name in ("a.dten", "b.dten", "c.dten"):
        write_tensor(tmp_path / name, rng.standard_normal((3, 2, 4)))
    bad = tmp_path / "b.dten"
    bad.write_bytes(LATER_ROW_FAULTS[fault](bad.read_bytes()))
    write_manifest(tmp_path / "manifest.csv", [(n, None) for n in ("a.dten", "b.dten", "c.dten")])
    with pytest.raises(ValueError) as want:
        read_tensor(bad)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        load_samples(tmp_path / "manifest.csv")


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 2), (3, 4), (3, 2, 4, 1), (4, 3, 2)])
def test_load_samples_later_row_of_other_extents_names_row(tmp_path, shape):
    # same byte count or not, any other extents are today's shape mismatch, naming the row
    write_tensor(tmp_path / "a.dten", np.ones((3, 2, 4)))
    write_tensor(tmp_path / "b.dten", np.ones((3, 2, 4)))
    write_tensor(tmp_path / "c.dten", np.ones(shape))
    write_manifest(tmp_path / "manifest.csv", [(n, None) for n in ("a.dten", "b.dten", "c.dten")])
    with pytest.raises(ValueError, match=re.escape(
            f"row 3 (c.dten) has shape {shape}, expected (3, 2, 4)")):
        load_samples(tmp_path / "manifest.csv")


def test_load_samples_checks_one_header_in_full(tmp_path):
    # on a clean manifest only the first row goes through read_tensor: the later rows take
    # the one-readv path, none falls back
    rng = np.random.default_rng(6)
    rows = []
    for i in range(7):
        write_tensor(tmp_path / f"s{i}.dten", rng.standard_normal((4, 3, 2)))
        rows.append((f"s{i}.dten", None))
    write_manifest(tmp_path / "manifest.csv", rows)
    with mock.patch.object(mtio, "read_tensor", wraps=mtio.read_tensor) as reader:
        samples, _ = load_samples(tmp_path / "manifest.csv")
    assert reader.call_count == 1
    assert samples.tobytes() == np.stack([read_tensor(tmp_path / r) for r, _ in rows]).tobytes()


def test_load_samples_takes_a_short_readv_through_the_checked_reader(tmp_path):
    # a readv that comes back short (e.g. one read stops short of 2 GiB) is no error: the
    # row is read again in full
    rng = np.random.default_rng(7)
    want = rng.standard_normal((3, 5, 4, 2))
    for i, t in enumerate(want):
        write_tensor(tmp_path / f"s{i}.dten", t)
    write_manifest(tmp_path / "manifest.csv", [(f"s{i}.dten", None) for i in range(3)])
    real = os.readv

    def short(fd, buffers):
        return min(real(fd, buffers), 100)

    with mock.patch("os.readv", short):
        got, _ = load_samples(tmp_path / "manifest.csv")
    assert got.tobytes() == want.tobytes()

# -0.0, the smallest subnormals, NaNs (one with a payload) and infinities, among any floats
SPECIAL = st.sampled_from([-0.0, 5e-324, -2.2e-308, float("nan"), -float("inf"),
                           float(np.uint64(0x7FF0_0000_0000_0123).view(np.float64))])


@given(st.data())
def test_load_samples_is_the_stack_of_read_tensor(tmp_path_factory, data):
    # order-3 tensors of one random shape, rows relative to the manifest or
    # absolute: the stack is bitwise read_tensor's, stacked
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    m = data.draw(st.integers(1, 5))
    here, there = tmp_path_factory.mktemp("manifest"), tmp_path_factory.mktemp("elsewhere")
    (here / "sub").mkdir()
    rows, paths = [], []
    for i in range(m):
        t = data.draw(arrays(shape, elements=st.one_of(SPECIAL, st.floats(width=64))))
        absolute = data.draw(st.booleans())
        path = there / f"s{i}.dten" if absolute else here / "sub" / f"s{i}.dten"
        write_tensor(path, t)
        rows.append((str(path) if absolute else f"sub/s{i}.dten", None))
        paths.append(path)
    write_manifest(here / "manifest.csv", rows)
    got, _ = load_samples(here / "manifest.csv")
    singles = [read_tensor(p) for p in paths]
    for t in singles:
        assert t.flags.owndata and t.flags.writeable and t.flags.c_contiguous
    want = np.stack(singles)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_load_samples_holds_the_stack_and_one_payload(tmp_path):
    # 200 files of 64 KB: the traced peak stays below the stack plus one
    # sample plus 64 KB, so no file's payload is copied twice or outlives its row
    rng = np.random.default_rng(3)
    rows = []
    for i in range(200):
        write_tensor(tmp_path / f"s{i:03d}.dten", rng.standard_normal((32, 32, 8)))
        rows.append((f"s{i:03d}.dten", f"c{i % 3}"))
    write_manifest(tmp_path / "manifest.csv", rows)
    tracemalloc.start()
    try:
        samples, _ = load_samples(tmp_path / "manifest.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sample = samples[0].nbytes
    assert peak < samples.nbytes + sample + 2 ** 16, (peak - samples.nbytes) / sample


def test_read_tensor_short_payload_read_names_the_path(tmp_path):
    # a payload read that comes back short (the file shrank after its size was
    # checked) is a truncated payload, not a wrong-sized array
    path = tmp_path / "t.dten"
    write_tensor(path, np.ones((4, 4, 4)))
    real = os.read

    def short(fd, n):
        return real(fd, n)[:-8] if n == 8 * 64 else real(fd, n)

    with mock.patch("os.read", short):
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated payload")):
            read_tensor(path)


def test_read_tensor_assembles_a_payload_read_in_parts(tmp_path):
    # read() may return less than asked (Linux stops one read short of 2 GiB):
    # the payload is read on until it is complete
    t = np.random.default_rng(4).standard_normal((5, 4, 3))
    path = tmp_path / "t.dten"
    write_tensor(path, t)
    real, sizes = os.read, []

    def capped(fd, n):
        sizes.append(n)
        return real(fd, min(n, 40))

    with mock.patch("os.read", capped):
        back = read_tensor(path)
    assert len(sizes) > 3
    assert back.tobytes() == t.tobytes()


def test_run_directory_roundtrip(tmp_path):
    x, _ = generate(SynthSpec(m=6, shape=(6, 5, 4), ranks=(2, 2, 4), seed=0,
                              n_clusters=2))
    g = build_graph(x, k=2)
    result = solve(x, g, (2, 2, 4), SolverConfig(zeta=1e-5, max_iter=30))
    summary = {"ranks": [2, 2, 4], "note": "roundtrip"}
    run_dir = tmp_path / "run"
    save_run(run_dir, result, summary)

    factors, cores, loaded_summary, trace_rows = load_run(run_dir)
    assert_array_equal(cores, result.cores)
    for a, b in zip(factors.as_list(), result.factors.as_list()):
        assert_array_equal(a, b)
    assert loaded_summary == summary
    assert len(trace_rows) == result.n_iter
    assert trace_rows[-1]["L"] == result.trace.records[-1].objective
    with open(run_dir / "summary.json") as fh:
        assert json.load(fh) == summary


def test_load_run_missing_cores(tmp_path):
    # read_tensor's OSError names the missing file
    run = tmp_path / "empty"
    run.mkdir()
    for n in (1, 2, 3):
        write_tensor(run / f"u{n}.dten", np.eye(3))
    with pytest.raises(OSError, match=r"empty/cores\.dten"):
        load_run(run)


def test_load_run_rejects_old_per_core_layout(tmp_path):
    # a directory of the old per-sample core_<n>.dten layout is a run without
    # cores.dten: the OSError names that file, the old files are not read
    for n in (1, 2, 3):
        write_tensor(tmp_path / f"u{n}.dten", np.eye(2))
    for i in range(3):
        write_tensor(tmp_path / f"core_{i:04d}.dten", np.zeros((2, 2, 2)))
    with pytest.raises(OSError, match=r"cores\.dten"):
        load_run(tmp_path)


def test_load_run_orders_cores_by_integer_index(tmp_path):
    # a 10,001-sample stack goes through one cores.dten and comes back in order
    m = 10_001
    cores = np.arange(m, dtype=np.float64).reshape(m, 1, 1, 1)
    factors = FactorSet(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    save_run(tmp_path, SolveResult(factors, cores, SolverTrace(), "max_iter", 0), {})
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["cores.dten", "summary.json", "trace.csv", "u1.dten", "u2.dten", "u3.dten"]
    _, loaded, _, _ = load_run(tmp_path)
    assert_array_equal(loaded, cores)


def test_load_run_checks_core_stack_shape(tmp_path):
    # cores.dten must be order 4 with extents (M, R1, R2, R3), the ranks
    # being the factors' column counts
    for n, r in zip((1, 2, 3), (2, 3, 4)):
        write_tensor(tmp_path / f"u{n}.dten", np.ones((5, r)))
    (tmp_path / "summary.json").write_text("{}")
    (tmp_path / "trace.csv").write_text(TRACE_HEADER + "\n")
    for bad in [(7, 2, 3), (7, 2, 3, 4, 1), (7, 3, 2, 4), (7, 2, 3, 5)]:
        write_tensor(tmp_path / "cores.dten", np.zeros(bad))
        with pytest.raises(ValueError, match=r"order 4 with extents \(M,\) \+ \(2, 3, 4\)"):
            load_run(tmp_path)
    write_tensor(tmp_path / "cores.dten", np.zeros((7, 2, 3, 4)))
    assert load_run(tmp_path)[1].shape == (7, 2, 3, 4)
    write_tensor(tmp_path / "u2.dten", np.ones(5))
    with pytest.raises(ValueError, match=r"must be matrices, got orders \[2, 1, 2\]"):
        load_run(tmp_path)


def test_load_run_rejects_non_finite_factors_and_cores(tmp_path):
    # a NaN or inf in any factor or in the core stack is refused, naming the file
    files = {"u1.dten": np.eye(3, 2), "u2.dten": np.eye(4, 2), "u3.dten": np.eye(2),
              "cores.dten": np.ones((5, 2, 2, 2))}
    for name, t in files.items():
        write_tensor(tmp_path / name, t)
    (tmp_path / "summary.json").write_text("{}")
    (tmp_path / "trace.csv").write_text(TRACE_HEADER + "\n")
    assert load_run(tmp_path)[1].shape == (5, 2, 2, 2)
    for name, t in files.items():
        for value in (np.nan, np.inf, -np.inf):
            bad = t.copy()
            bad.flat[-1] = value
            write_tensor(tmp_path / name, bad)
            with pytest.raises(ValueError, match=rf"non-finite entries \(NaN or inf\) in {name}$"):
                load_run(tmp_path)
        write_tensor(tmp_path / name, t)


def test_trace_csv_columns_follow_iteration_record(tmp_path):
    # one row per record: the integer iteration, then every other field of
    # IterationRecord in declaration order, as repr() of a float
    values = [3, 1.5, 0.25, 1e-300, 0.0, -2.0, 1 / 3, 0.5, 7.0, 4.0, 2.0, 0.75, 0.25]
    trace = SolverTrace()
    trace.records.append(IterationRecord(*values))
    factors = FactorSet(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    save_run(tmp_path, SolveResult(factors, np.ones((1, 1, 1, 1)), trace, "max_iter", 1), {})
    assert (tmp_path / "trace.csv").read_text() == (
        "iter,L,l1_term,fit_term,manifold_term,RE,decrease_slack,sparsity,wall_ms,"
        "t_factor_ms,t_core_ms,t_eval_ms,t_other_ms\n"
        "3,1.5,0.25,1e-300,0.0,-2.0,0.3333333333333333,0.5,7.0,4.0,2.0,0.75,0.25\n")
    assert load_run(tmp_path)[3] == [dict(zip(TRACE_HEADER.split(","), map(float, values)))]


@pytest.mark.parametrize("name, text, message", [
    ("summary.json", '{"ranks": [1, 1, 1],}', "Expecting property name"),
    ("trace.csv", TRACE_HEADER + "\n1,1,1,1,1,1,1,1,0,0,0,0,0\n\n2,1,1,1,abc,1,1,1,0,0,0,0,0\n",
     "line 4: could not convert string to float: 'abc'"),
    ("trace.csv", TRACE_HEADER + "\n1,1,1,1,1,1,1,1,0,0,0,0\n",
     "line 2: 12 fields, the header has 13"),
])
def test_load_run_names_file_and_line_of_malformed_summary_or_trace(tmp_path, name, text,
                                                                   message):
    # a ValueError names the file, and a trace row's line; a short row must not
    # come back short, leaving eval without the fields it reads
    factors = FactorSet(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    save_run(tmp_path, SolveResult(factors, np.ones((1, 1, 1, 1)), SolverTrace(), "max_iter", 0),
             {})
    assert load_run(tmp_path)[3] == []
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError) as exc:
        load_run(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path / name}: {message}")


def test_read_tensor_huge_header_does_not_allocate(tmp_path):
    path = tmp_path / "huge.dten"
    path.write_bytes(b"DTEN" + struct.pack("<II", 1, 1) + struct.pack("<Q", 2 ** 40)
                     + np.zeros(4).tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_read_tensor_rejects_trailing_bytes_and_short_headers(tmp_path):
    good = tmp_path / "good.dten"
    write_tensor(good, np.ones((2, 3)))
    raw = good.read_bytes()
    trailing = tmp_path / "trailing.dten"
    trailing.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        read_tensor(trailing)
    for cut in (6, 12, 20):     # inside the fixed header, at its end, inside the extents
        short = tmp_path / f"short{cut}.dten"
        short.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            read_tensor(short)
    huge_order = tmp_path / "order.dten"
    huge_order.write_bytes(raw[:8] + struct.pack("<I", 2 ** 31) + raw[12:])
    with pytest.raises(ValueError, match="order"):
        read_tensor(huge_order)
