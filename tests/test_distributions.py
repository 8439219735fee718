import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from aud_lab import distributions
from aud_lab.distributions import SeededStream, exponential_epochs, exponential_gaps, splitmix64
from aud_lab.errors import ParameterError
from aud_lab.queueing import SystemParams
from aud_lab.stats import ks_exponential


def test_exponential_inverse_cdf_identity():
    # each gap is -log(U) / rate of the stream's own uniform draw, bit for bit,
    # and the streamed epochs are its running sums
    gaps = -np.log(SeededStream(4, 0).uniform_open(1000)) / 0.3
    assert np.array_equal(exponential_gaps(SeededStream(4, 0), 0.3, 1000), gaps)
    assert np.array_equal(exponential_epochs(SeededStream(4, 0), 0.3, 1000), np.cumsum(gaps))


def test_exponential_mean_lln():
    # law of large numbers: 1e6 draws at rate 0.5 put the mean well within 1%
    # of 2.0 (the sampling noise scale is 2.58 sigma/sqrt(n) ~ 0.005)
    n = 1_000_000
    draws = exponential_gaps(SeededStream(42, 0), 0.5, n)
    noise_scale = 2.58 * draws.std(ddof=1) / math.sqrt(n)
    assert noise_scale < 0.01 * 2.0
    assert abs(draws.mean() - 2.0) / 2.0 < 0.01


def test_exponential_variance():
    draws = exponential_gaps(SeededStream(7, 3), 0.7, 1_000_000)
    assert draws.var(ddof=1) == pytest.approx(1.0 / 0.7**2, rel=0.01)


def test_exponential_memorylessness():
    # draws beyond t0, shifted back by t0, must still be exponential at the same rate
    rate, t0 = 0.7, 1.0
    draws = exponential_gaps(SeededStream(11, 0), rate, 400_000)
    tail = draws[draws > t0] - t0
    assert len(tail) >= 100_000
    result = ks_exponential(tail[:100_000], rate)
    assert result.p_value >= 0.01


def test_uniform_bounds_and_mean():
    draws = SeededStream(3, 0).uniform_open(200_000)
    assert draws.min() > 0.0 and draws.max() < 1.0
    assert draws.mean() == pytest.approx(0.5, rel=0.005)


def test_determinism_bit_identical():
    a = exponential_gaps(SeededStream(123, 5), 1.3, 10_000)
    b = exponential_gaps(SeededStream(123, 5), 1.3, 10_000)
    assert (a == b).all()


def test_distinct_streams_differ():
    a = exponential_gaps(SeededStream(123, 0), 1.0, 1000)
    b = exponential_gaps(SeededStream(123, 1), 1.0, 1000)
    assert not (a == b).any()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_draws_strictly_positive():
    for rate in (5.0, 0.1, 1e3):
        assert (exponential_gaps(SeededStream(9, 2), rate, 50_000) > 0.0).all()


# The rates in SystemParams are all that specifies the exponential gaps.
@pytest.mark.parametrize(
    "bad",
    [
        lambda: SystemParams(0.0, 1.0),
        lambda: SystemParams(-1.0, 1.0),
        lambda: SystemParams(math.inf, 1.0),
        lambda: SystemParams(1.0, 0.0),
        lambda: SystemParams(1.0, -2.5),
        lambda: SystemParams(1.0, math.nan),
    ],
)
def test_invalid_spec_parameters(bad):
    with pytest.raises(ParameterError):
        bad()


@pytest.mark.parametrize("seed,stream_id", [(-1, 0), (2**64, 0), (0, -1), (1.5, 0), (0, 2**64)])
def test_invalid_stream_arguments(seed, stream_id):
    with pytest.raises(ParameterError):
        SeededStream(seed, stream_id)


@pytest.mark.parametrize("entry", [exponential_gaps, exponential_epochs])
@pytest.mark.parametrize("rate,size,out", [
    (-1.0, 3, None), (0.0, 3, None), (math.nan, 3, None), (math.inf, 3, None),
    (1.0, 3, np.empty(4)), (1.0, 3, np.empty(2)),
    (1.0, -1, None),
])
def test_invalid_draw_arguments(entry, rate, size, out):
    with pytest.raises(ParameterError):
        entry(SeededStream(1, 2), rate, size, out=out)


def test_uniform_open_excludes_endpoints():
    u = SeededStream(0, 0).uniform_open(1_000_000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_splitmix64_stable_values():
    # frozen reference values pin the hash across platforms
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(0xFFFFFFFFFFFFFFFF) == 16490336266968443936


@given(
    rate=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**32),
)
@settings(max_examples=50, deadline=None)
def test_exponential_draw_properties(rate, seed, stream_id):
    draws = exponential_gaps(SeededStream(seed, stream_id), rate, 100)
    again = exponential_gaps(SeededStream(seed, stream_id), rate, 100)
    assert (draws > 0.0).all()
    assert (draws == again).all()


# A small block so that short requests already run in several blocks.
SMALL_BLOCK = 4096
BLOCK_SIZES = [0, 1, 3, 4, 5, SMALL_BLOCK + 7, 3 * SMALL_BLOCK]


def reference_generator(seed, stream_id):
    """A sequential generator of the stream (seed, stream_id), from its own SeedSequence.

    It is made through ``distributions.Generator``, so a test that patches
    that name patches the reference too.
    """
    key = SeedSequence(entropy=seed, spawn_key=(stream_id & 0xFFFFFFFF, stream_id >> 32))
    return distributions.Generator(Philox(key))


def sequential_open(gen, size):
    """``uniform_open`` as one sequential draw, with 0.0 mapped to 2^-53."""
    u = gen.random(size)
    u[u == 0.0] = 2.0**-53
    return u


class ZeroingGenerator:
    """A Generator whose draws below ``threshold`` come out as exact 0.0.

    Which draws turn to 0.0 depends only on their values, so the block path
    and a sequential draw see the same draws.
    """

    threshold = 0.05

    def __init__(self, bit_generator):
        self._gen = Generator(bit_generator)
        self.bit_generator = bit_generator

    def random(self, size=None, out=None):
        if size is None and out is None:
            u = self._gen.random()
            return 0.0 if u < self.threshold else u
        u = self._gen.random(size, out=out)
        u[u < self.threshold] = 0.0
        return u


@pytest.mark.parametrize("offset", range(9))
def test_block_draws_equal_one_sequential_draw(monkeypatch, offset):
    monkeypatch.setattr(distributions, "BLOCK_SIZE", SMALL_BLOCK)
    for size in BLOCK_SIZES:
        stream = SeededStream(42, 3)
        reference = reference_generator(42, 3)
        np.testing.assert_array_equal(stream.uniform_open(offset), reference.random(offset))
        got = stream.uniform_open(size)
        assert got.shape == (size,)
        np.testing.assert_array_equal(got, reference.random(size))
        # the stream's state afterwards is that of the sequential draw
        np.testing.assert_array_equal(stream.uniform_open(11), reference.random(11))


def test_a_block_drawn_from_the_stored_key_equals_philox_keyed_by_it():
    # each block builds its Philox from the stream's stored key, with no seed
    # entropy drawn; its values are those of Philox(key=key) from its position
    key = SeededStream(42, 3)._key
    reference = Generator(Philox(key=key)).random(2 * SMALL_BLOCK + 12)
    for start in range(6):
        block = distributions._draw_block(key, start, np.empty(10), None)
        np.testing.assert_array_equal(block, reference[start:start + 10])
    # three blocks whose seams fall one and two draws into a Philox counter
    seams = [0, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 6, 2 * SMALL_BLOCK + 12]
    blocks = [distributions._draw_block(key, a, np.empty(b - a), None)
              for a, b in zip(seams[:-1], seams[1:])]
    np.testing.assert_array_equal(np.concatenate(blocks), reference)


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_block_draws_reject_zeros_like_one_sequential_draw(monkeypatch, threads):
    monkeypatch.setattr(distributions, "BLOCK_SIZE", SMALL_BLOCK)
    monkeypatch.setattr(distributions, "Generator", ZeroingGenerator)
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    for offset in (0, 1, 3):
        for size in BLOCK_SIZES:
            stream = SeededStream(7, 1)
            reference = reference_generator(7, 1)
            stream.uniform_open(offset)
            sequential_open(reference, offset)
            got = stream.uniform_open(size)
            assert (got > 0.0).all()
            # each 0.0 is mapped where it was drawn, and the request takes size draws
            np.testing.assert_array_equal(got, sequential_open(reference, size))
            np.testing.assert_array_equal(stream.uniform_open(11), sequential_open(reference, 11))


@pytest.mark.parametrize("threshold,zeros", [(0.0, 0), (5e-5, 1), (0.05, 1054), (0.25, 5263)])
def test_block_cumulative_gaps_equal_one_cumsum(monkeypatch, threshold, zeros):
    monkeypatch.setattr(distributions, "BLOCK_SIZE", SMALL_BLOCK)
    # after one draw: five blocks, each starting one draw into a Philox counter,
    # and a sixth of the last four draws
    size = 5 * SMALL_BLOCK + 4
    draws = SeededStream(1009, 2).uniform_open(1 + size)
    # at 5e-5 one draw turns to 0.0, in the first block; at 0.05 every full block has
    # some, and at 0.25 the sixth block and draws 1-3 too: the first block's draws in
    # the counter whose draw 0 it skips
    assert (draws < threshold).sum() == zeros
    assert (draws[1:4].min() < threshold and draws[-1] < threshold) == (threshold == 0.25)
    monkeypatch.setattr(ZeroingGenerator, "threshold", threshold)
    monkeypatch.setattr(distributions, "Generator", ZeroingGenerator)
    # both entry points: the epochs of the arrivals and decisions, the gaps of the services
    for entry, total in ((exponential_epochs, np.cumsum), (exponential_gaps, None)):
        stream = SeededStream(1009, 2)
        reference = reference_generator(1009, 2)
        stream.uniform_open(1)
        sequential_open(reference, 1)
        got = entry(stream, 2.5, size)
        gaps = -np.log(sequential_open(reference, size)) / 2.5
        np.testing.assert_array_equal(got, total(gaps) if total else gaps)
        np.testing.assert_array_equal(stream.uniform_open(5), sequential_open(reference, 5))


def test_concurrent_block_draws_from_many_threads(monkeypatch):
    # more submitting threads than pool workers or cores, as sweep points do
    monkeypatch.setattr(distributions, "BLOCK_SIZE", SMALL_BLOCK)
    monkeypatch.setenv("AUD_LAB_THREADS", "3")
    size = 7 * SMALL_BLOCK + 5

    def draw(stream_id):
        stream = SeededStream(5, stream_id)
        return [stream.uniform_open(size) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            futures = [callers.submit(draw, i) for i in range(16)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for stream_id, got in enumerate(results):
        reference = reference_generator(5, stream_id)
        for draws in got:
            np.testing.assert_array_equal(draws, reference.random(size))


def test_block_pool_follows_the_thread_cap(monkeypatch):
    monkeypatch.setenv("AUD_LAB_THREADS", "3")
    assert distributions.worker_limit() == 3
    pool = distributions.block_pool()
    assert distributions.block_pool() is pool
    monkeypatch.setenv("AUD_LAB_THREADS", "0")
    assert distributions.worker_limit() == 1
    assert distributions.block_pool() is not pool
    monkeypatch.setenv("AUD_LAB_THREADS", "two")
    with pytest.raises(ParameterError, match="AUD_LAB_THREADS"):
        distributions.worker_limit()


def test_short_requests_are_drawn_in_place_with_the_pooled_values(monkeypatch):
    # a request of at most one block is drawn on the calling thread, from the same
    # key and position as the pool would draw it
    monkeypatch.setattr(distributions, "BLOCK_SIZE", SMALL_BLOCK)
    # from nonzero positions, across the seams of the pooled draw's blocks and of
    # Philox counters, an empty request among them
    sizes = [1, 3, SMALL_BLOCK - 1, SMALL_BLOCK, 0, 6, SMALL_BLOCK, 2]
    pool_calls = []
    pool = distributions.block_pool
    monkeypatch.setattr(distributions, "block_pool", lambda: pool_calls.append(1) or pool())
    uniforms = SeededStream(42, 3).uniform_open(sum(sizes))
    epochs = exponential_epochs(SeededStream(42, 3), 2.5, sum(sizes))
    gaps = exponential_gaps(SeededStream(42, 3), 2.5, sum(sizes))
    assert len(pool_calls) == 3

    def no_pool():
        raise AssertionError("a short request went to the block pool")

    monkeypatch.setattr(distributions, "block_pool", no_pool)
    empty = np.empty(0)
    assert SeededStream(42, 3).fill_open(empty, 2.5) is empty  # an empty request, filled
    stream = SeededStream(42, 3)
    np.testing.assert_array_equal(
        np.concatenate([stream.uniform_open(size) for size in sizes]), uniforms)
    stream, got, last = SeededStream(42, 3), [], 0.0
    for size in sizes:
        got.append(exponential_epochs(stream, 2.5, size, last))
        last = got[-1][-1] if size else last
    np.testing.assert_array_equal(np.concatenate(got), epochs)
    stream = SeededStream(42, 3)
    np.testing.assert_array_equal(
        np.concatenate([exponential_gaps(stream, 2.5, size) for size in sizes]), gaps)
