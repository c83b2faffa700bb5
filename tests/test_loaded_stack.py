"""Loaded sample stacks: load_samples returns a read-only stack whose checked norm and
raw mode Grams the pipeline forms once, with outputs bitwise equal to a writable copy's;
views, slices and copies are never served, and the entries go with the stack."""

import contextlib
import dataclasses
import gc
from unittest import mock

import numpy as np
import pytest

from mrtucker import (SolverConfig, SynthSpec, build_graph, generate, select_ranks, solve,
                      stationarity_residual, tensor)
from mrtucker.io import load_samples, write_manifest, write_tensor

# the benchmark workloads shrunk as its tiny() does: 12 samples of 6x6x3, ranks (2, 2, 3),
# k at most 11 and 2 sweeps; (graph degree, weights, solver settings)
FIXED = {"zeta": 1e-15, "max_iter": 2}
TINY_WORKLOADS = {"desk": (4, "binary", {"max_iter": 2}), "many_samples": (4, "binary", FIXED),
                  "large_tensor": (4, "binary", FIXED), "dense_graph": (11, "heat_kernel", FIXED)}
TIME_COLUMNS = {"wall_ms", "t_factor_ms", "t_core_ms", "t_eval_ms", "t_other_ms"}


def write_stack(path, samples):
    names = [f"s{i}.dten" for i in range(len(samples))]
    for name, sample in zip(names, samples):
        write_tensor(path / name, sample)
    write_manifest(path / "manifest.csv", [(name, None) for name in names])
    return path / "manifest.csv"


@pytest.fixture
def loaded(tmp_path):
    x, _ = generate(SynthSpec(m=12, shape=(6, 6, 3), ranks=(2, 2, 3), seed=3))
    return load_samples(write_stack(tmp_path, x))[0]


@contextlib.contextmanager
def recording_forms():
    """tensor._once patched to record (stack, key) each time it forms a value; yields the
    records."""
    formed, once = [], tensor._once

    def spy(a, key, form):
        def recorded():
            formed.append((a, key))
            return form()
        return once(a, key, recorded)

    with mock.patch.object(tensor, "_once", spy):
        yield formed


def raw_mode1(formed, x):
    """How many of the recorded forms were the raw mode-1 Gram of stack x."""
    return sum(a is x and key == 1 for a, key in formed)


def test_loaded_stack_is_read_only(loaded):
    with pytest.raises(ValueError, match="read-only"):
        loaded[0] = 0
    with pytest.raises(ValueError):
        loaded.flags.writeable = True
    frozen = tensor._frozen(np.array(loaded))
    with pytest.raises(ValueError):
        frozen.flags.writeable = True


@pytest.mark.parametrize("copy", [False, True])
def test_pipeline_forms_norm_and_raw_mode1_gram_once(loaded, copy):
    # on the loaded stack select_ranks forms both; build_graph, solve and the residual reuse
    # them. A writable copy forms the Gram in select_ranks and init_state, and the norm in
    # each call
    x = np.array(loaded) if copy else loaded
    with recording_forms() as formed, \
            mock.patch.object(tensor, "_stack_norm", wraps=tensor._stack_norm) as norm:
        ranks = select_ranks(x)
        g = build_graph(x, k=4)
        res = solve(x, g, ranks, SolverConfig(max_iter=2))
        stationarity_residual(x, res.cores, res.factors, g, SolverConfig())
    assert (raw_mode1(formed, x), norm.call_count) == ((2, 4) if copy else (1, 1))


def test_residual_forms_no_mode_gram_of_the_cores(loaded):
    # the factor residual is the tangent part of -B_n alone: U_n G_(n) G_(n)^T is U_n times a
    # symmetric matrix, which the tangent projection maps to zero, so no Gram of the cores
    g = build_graph(loaded, k=4)
    res = solve(loaded, g, select_ranks(loaded), SolverConfig(max_iter=2))
    with recording_forms() as formed:
        stationarity_residual(loaded, res.cores, res.factors, g, SolverConfig())
    assert [key for a, key in formed if np.shares_memory(a, res.cores)] == []


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
def test_loaded_stack_outputs_equal_a_writable_copys(loaded, workload):
    k, weights, settings = TINY_WORKLOADS[workload]
    config = SolverConfig(**settings)
    out = []
    for x in (loaded, np.array(loaded)):
        ranks = select_ranks(x)
        g = build_graph(x, k=k, strategy=weights)
        res = solve(x, g, ranks, config)
        out.append((ranks, res, stationarity_residual(x, res.cores, res.factors, g, config)))
    (ranks, res, resid), (ranks_c, res_c, resid_c) = out
    assert ranks == ranks_c and res.n_iter == res_c.n_iter
    for a, b in zip([*res.factors, res.cores, *resid], [*res_c.factors, res_c.cores, *resid_c]):
        assert a.tobytes() == b.tobytes()
    for rec, rec_c in zip(res.trace.records, res_c.trace.records):
        a, b = ([v for f, v in dataclasses.asdict(r).items() if f not in TIME_COLUMNS]
                for r in (rec, rec_c))
        assert np.array(a).tobytes() == np.array(b).tobytes()


def test_views_slices_and_copies_are_not_served(loaded):
    tensor._sample_stack(loaded)
    tensor._mode_gram(loaded, 1)
    with recording_forms() as formed, \
            mock.patch.object(tensor, "_stack_norm", wraps=tensor._stack_norm) as norm:
        for x in (loaded[1:], loaded.view(), loaded.copy(), np.array(loaded)):
            for _ in range(2):
                tensor._sample_stack(x)
                tensor._mode_gram(x, 1)
            assert raw_mode1(formed, x) == 2
        shared = tensor._mode_gram(loaded, 1)
        assert tensor._sample_stack(loaded)[1] == np.linalg.norm(loaded)
    assert (sum(key == 1 for _, key in formed), norm.call_count) == (8, 8)
    assert shared is tensor._mode_gram(loaded, 1) and not shared.flags.writeable


def test_failed_check_keeps_nothing(tmp_path):
    x, _ = generate(SynthSpec(m=6, shape=(6, 5, 4), ranks=(2, 2, 4), n_clusters=2))
    x[3, 1, 2, 0] = np.nan
    samples, _ = load_samples(write_stack(tmp_path, x))
    with mock.patch.object(tensor, "_stack_norm", wraps=tensor._stack_norm) as norm:
        for _ in range(2):
            with pytest.raises(ValueError, match=r"at samples \[3\]"):
                select_ranks(samples)
    assert norm.call_count == 2 and tensor._LOADED[id(samples)] == {}


def test_entries_go_with_the_stack(tmp_path):
    gc.collect()
    before = len(tensor._LOADED)
    x, _ = generate(SynthSpec(m=12, shape=(6, 6, 3), ranks=(2, 2, 3), seed=3))
    samples, _ = load_samples(write_stack(tmp_path, x))
    select_ranks(samples)
    key = id(samples)
    assert set(tensor._LOADED[key]) == {"norm", 1, 2}
    del samples
    gc.collect()
    assert key not in tensor._LOADED and len(tensor._LOADED) == before
