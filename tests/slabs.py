"""cut_into_slabs: the chunked passes' slab size patched small, with a check that the
patch took effect, so a test of accumulation over slabs cannot pass on one slab."""

import contextlib
from unittest import mock

from mrtucker import solver, tensor


@contextlib.contextmanager
def cut_into_slabs(floats: int):
    """tensor._CHUNK_FLOATS set to floats while the block runs; fails unless the block made
    a _chunks call (in tensor.py or solver.py) and every such call cut its rows into more
    than one slab."""
    counts, chunks = [], tensor._chunks

    def spy(*args, **kwargs):
        slabs = list(chunks(*args, **kwargs))
        counts.append(len(slabs))
        return slabs

    with mock.patch.object(tensor, "_CHUNK_FLOATS", floats), \
            mock.patch.object(tensor, "_chunks", spy), mock.patch.object(solver, "_chunks", spy):
        yield
    assert counts and min(counts) > 1, f"slabs of {floats} floats per _chunks call: {counts}"
