"""Seeded exponential inter-event times from counter-based Philox streams.

Every gap is -ln(U) / rate for a uniform draw U on (0, 1) from a Philox
stream, so a given (seed, stream_id) pair reproduces the same sequence on
any platform, and distinct stream ids give statistically independent
streams for the arrival, service, and decision processes.  The block that
draws the uniforms also turns them into the gaps of all three, given their
rate: ``exponential_gaps`` returns them, ``exponential_epochs`` their
running sums, one ``np.cumsum`` over the filled gaps.

A stream is its Philox key and the count of draws taken from it.  Philox
maps a counter to four 64-bit words, so any stretch of a stream can be
drawn on its own from the key and its position.  Every request is drawn
that way, in blocks of up to ``BLOCK_SIZE`` values, with the same values as
one sequential draw: a request of one block on the calling thread, a longer
one block by block as tasks on a shared thread pool, waited on before it
returns.  ``SeededStream.draw_at`` draws one stretch at a given position on
the calling thread, for a consumer that runs its own blocks as pool tasks.
"""
from __future__ import annotations

import concurrent.futures
import math
import os
import threading

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

# Conventional stream ids for the three processes driving a simulation.
ARRIVAL_STREAM = 0
SERVICE_STREAM = 1
DECISION_STREAM = 2

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Values per block, and the most a request draws on the calling thread.  The
# split changes no drawn value, only how the work is shared out.
BLOCK_SIZE = 1 << 17

_pool: concurrent.futures.ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def worker_limit() -> int:
    """Threads of the block pool: ``AUD_LAB_THREADS`` if set, else the CPU count.

    Values below 1 count as 1; a value that is not an integer raises
    ParameterError.
    """
    cap = os.environ.get("AUD_LAB_THREADS")
    if not cap:
        return os.cpu_count() or 1
    try:
        return max(1, int(cap.strip()))
    except ValueError:
        raise ParameterError(
            f"AUD_LAB_THREADS must be an integer, got {cap.strip()!r}"
        ) from None


def block_pool() -> concurrent.futures.ThreadPoolExecutor:
    """The shared pool of ``worker_limit()`` threads, made on first use.

    A task may wait only on a task submitted before it in the same chain
    (``experiments._Point.aud``'s decision blocks, each of which waits for
    the last epoch of the block before it).  The queue is FIFO, so a thread
    took that earlier task first: it is running or done, and by the same
    rule it waits only on tasks that are, down to a chain's first, which
    waits on nothing.  So no wait deadlocks, at any thread count and with
    any number of callers submitting chains at once.  Any thread that is not
    one of the pool's may submit and wait.  A random draw of more than one
    block waits on it, so no task draws more than one block.  A changed
    ``AUD_LAB_THREADS`` gets a new pool; the old one's threads exit once the
    last caller drops it.  The threads start on first use; the executor's
    module itself is imported with this one.
    """
    global _pool, _pool_workers
    workers = worker_limit()
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            _pool = concurrent.futures.ThreadPoolExecutor(workers, thread_name_prefix="aud-lab")
            _pool_workers = workers
        return _pool


# The smallest nonzero draw: Philox's doubles are the multiples of 2^-53 in [0, 1).
SMALLEST_DRAW = 2.0**-53


def _finish(part: np.ndarray, rate: float | None) -> np.ndarray:
    """Freshly drawn ``part``, each exact 0.0 mapped to SMALLEST_DRAW, then, given a
    ``rate``, turned in place into the gaps -log(U) / rate."""
    if not part.all():
        part[part == 0.0] = SMALLEST_DRAW
    if rate is not None:
        np.log(part, out=part)
        part /= -rate  # IEEE division is sign-symmetric: the same bits as -log(U) / rate
    return part


class _StoredKey(ISeedSequence):
    """Hands Philox a stored key as its seed state: no entropy is drawn to build one."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for its two-word uint64 key alone


def _draw_block(key, start: int, out: np.ndarray, rate: float | None) -> np.ndarray:
    """``out``, finished, drawn from the Philox stream keyed ``key`` from its draw ``start`` on."""
    bit_generator = Philox(_StoredKey(key))
    bit_generator.advance(start // 4)  # skip whole counters, four draws each
    bit_generator.random_raw(start % 4)  # and the next counter's draws before ``start``
    return _finish(Generator(bit_generator).random(out=out), rate)


def splitmix64(x: int) -> int:
    """Stable 64-bit integer hash (splitmix64 finalizer)."""
    x &= _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SeededStream:
    """Reproducible uniform source identified by (seed, stream_id).

    Identical (seed, stream_id) pairs produce bit-identical sequences across
    runs and platforms; distinct stream ids key independent Philox streams.
    The stream holds its Philox key and the count of draws taken so far.
    A stream is single-owner: never share one between concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        if isinstance(stream_id, bool) or not isinstance(stream_id, (int, np.integer)):
            raise ParameterError(f"stream_id must be an integer, got {stream_id!r}")
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= stream_id <= _MASK64:
            raise ParameterError(f"stream_id must lie in [0, 2^64), got {stream_id}")
        stream_id = int(stream_id)
        # the key ``Philox(seed_seq)`` takes, with its counter at 0
        self._key = SeedSequence(entropy=int(seed), spawn_key=(
            stream_id & 0xFFFFFFFF, stream_id >> 32)).generate_state(2, np.uint64)
        self._drawn = 0

    def uniform_open(self, size: int) -> np.ndarray:
        """``size`` uniform draws on the open interval (0, 1).

        An exact 0.0, drawn with probability 2^-53, is mapped to
        SMALLEST_DRAW, so a request moves the stream on by exactly ``size``
        draws.  The values are drawn by ``fill_open``: those of one
        sequential draw.
        """
        if size < 0:
            raise ParameterError(f"size must be non-negative, got {size}")
        return self.fill_open(np.empty(size))

    def draw_at(self, start: int, out: np.ndarray, rate: float | None = None) -> np.ndarray:
        """``out``, filled as ``fill_open`` fills it, from the stream's draw ``start`` on.

        The draws are those the stream gives at positions ``start`` to
        ``start + len(out)``, whatever it has drawn so far; the stream does
        not move.  It reads only the key, so concurrent calls may share the
        stream, and draws on the calling thread, so a pool task may call it.
        """
        return _draw_block(self._key, start, out, rate)

    def fill_open(self, out: np.ndarray, rate: float | None = None) -> np.ndarray:
        """``out``, filled with ``uniform_open(len(out))``: given a ``rate``, their gaps.

        The stream moves on by ``len(out)`` draws.  The 0.0s are mapped and,
        given a ``rate``, each draw U is turned into the gap -log(U) / rate.
        A request of at most ``BLOCK_SIZE`` values is drawn here, on the
        calling thread; a longer one draws each block of ``BLOCK_SIZE``, from
        the stream's key at the block's position, by its own task on
        ``block_pool()``, and waits for them all.
        """
        start, self._drawn = self._drawn, self._drawn + len(out)
        if len(out) <= BLOCK_SIZE:  # no pool round trip for a short request
            return self.draw_at(start, out, rate)
        pool = block_pool()
        blocks = [pool.submit(self.draw_at, start + a, out[a:a + BLOCK_SIZE], rate)
                  for a in range(0, len(out), BLOCK_SIZE)]
        for block in blocks:
            block.result()
        return out


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive, got {value!r}")


def exponential_gaps(stream: SeededStream, rate: float, size: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``size`` exponential gaps -log(U) / rate (mean 1 / rate) from ``stream``, into ``out``.

    Raises ParameterError for a rate that is not positive and finite, a
    negative ``size`` or an ``out`` of another length.
    """
    _require_positive("rate", rate)
    if size < 0:
        raise ParameterError(f"size must be non-negative, got {size}")
    if out is not None and len(out) != size:
        raise ParameterError(f"out holds {len(out)} values, not size {size}")
    return stream.fill_open(np.empty(size) if out is None else out, rate)


def exponential_epochs(stream: SeededStream, rate: float, size: int, start: float = 0.0,
                       out: np.ndarray | None = None) -> np.ndarray:
    """``start`` plus the running sums of ``exponential_gaps(stream, rate, size)``, into ``out``.

    ``start`` is added to the first gap, then ``np.cumsum`` adds left to
    right, so this is bit-identical to one ``np.cumsum`` over the gaps that
    led to ``start`` and these.
    """
    epochs = exponential_gaps(stream, rate, size, out)
    if size:
        epochs[0] += start
    return np.cumsum(epochs, out=epochs)
