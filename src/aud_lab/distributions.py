"""Seeded exponential inter-event times from counter-based Philox streams.

Every gap is -ln(U) / rate for a uniform draw U on (0, 1) from a Philox
stream, so a given (seed, stream_id) pair reproduces the same sequence on
any platform, and distinct stream ids give statistically independent
streams for the arrival, service, and decision processes.  One transform
(``_gap_parts``) makes the gaps of all three: ``exponential_gaps`` returns
them, ``exponential_epochs`` their running sums.

Philox maps a counter to four 64-bit words, so any stretch of a stream can
be drawn on its own from the key and the counter at its start.  Requests
longer than ``BLOCK_SIZE`` values are drawn that way, one counter block per
task on a shared thread pool, with the same values and the same stream
state afterwards as one sequential draw.
"""
from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Callable, Iterator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .errors import ParameterError

# Conventional stream ids for the three processes driving a simulation.
ARRIVAL_STREAM = 0
SERVICE_STREAM = 1
DECISION_STREAM = 2

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Values per pool task; a multiple of Philox's four words per counter.  The
# split changes no drawn value, only how the work is shared out.
BLOCK_SIZE = 1 << 19

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

    Its tasks never wait on other tasks, so any thread may submit to it
    and wait.  A changed ``AUD_LAB_THREADS`` gets a new pool;
    the old one's threads exit once the last caller drops it.  The
    executor's module loads on first use too, which keeps it out of the
    import.
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


def _finish(part: np.ndarray, transform) -> np.ndarray:
    """Freshly drawn ``part``, each exact 0.0 mapped to SMALLEST_DRAW, then ``transform``-ed."""
    if not part.all():
        part[part == 0.0] = SMALLEST_DRAW
    if transform is not None:
        transform(part)
    return part


def _draw_block(counter, key, skip: int, out: np.ndarray, transform) -> np.ndarray:
    """``out``, finished, drawn from Philox stream (counter, key) after ``skip`` counters."""
    bit_generator = Philox(counter=counter, key=key)
    if skip:
        bit_generator.advance(skip)
    return _finish(Generator(bit_generator).random(out=out), transform)


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
    A stream is single-owner: never share one between concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        if isinstance(stream_id, bool) or not isinstance(stream_id, (int, np.integer)):
            raise ParameterError(f"stream_id must be an integer, got {stream_id!r}")
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed must fit in 64 bits, got {seed}")
        if stream_id < 0:
            raise ParameterError(f"stream_id must be non-negative, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id) & _MASK64
        key = SeedSequence(
            entropy=self.seed,
            spawn_key=(self.stream_id & 0xFFFFFFFF, self.stream_id >> 32),
        )
        self._gen = Generator(Philox(key))

    def __repr__(self):
        return f"SeededStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform_open(self, size: int) -> np.ndarray:
        """``size`` uniform draws on the open interval (0, 1).

        An exact 0.0, drawn with probability 2^-53, is mapped to
        SMALLEST_DRAW, so a request moves the stream on by exactly ``size``
        draws.  A request longer than ``BLOCK_SIZE`` is drawn in counter
        blocks on ``block_pool()`` (see ``fill_open``); the values and the
        stream's state afterwards are those of one sequential draw.
        """
        if size < 0:
            raise ParameterError(f"size must be non-negative, got {size}")
        u = np.empty(size)
        for _ in self.fill_open(u):
            pass
        return u

    def fill_open(
        self, out: np.ndarray, transform: Callable[[np.ndarray], None] | None = None
    ) -> Iterator[np.ndarray]:
        """Fill ``out`` with ``uniform_open(len(out))``; return its parts in index order.

        The stream moves on by ``len(out)`` draws before this returns.  Each
        part is a non-empty view of ``out`` that is final when the iterator
        yields it: its 0.0s are mapped and its draws passed through
        ``transform`` (in place), if given.  The parts cover ``out``.

        Up to ``BLOCK_SIZE`` values are drawn sequentially in one part.  A
        longer request draws the words left in Philox's four-word buffer
        (the head) and the last ``(size - head) % 4`` values (the tail) from
        the stream itself, and the body between them in counter blocks of
        ``BLOCK_SIZE`` on ``block_pool()``, each from the counter after the
        head plus its offset.  The stream then skips the body with one
        ``advance``; ``advance`` also clears the buffer, which is spent by
        then.  Each task finishes its own block, so the caller can consume
        it while later ones are still being drawn.
        """
        gen = self._gen
        size = len(out)
        if size <= BLOCK_SIZE:
            gen.random(out=out)
            _finish(out, transform)
            return iter((out,) if size else ())
        bit_generator = gen.bit_generator
        state = bit_generator.state
        head = 4 - state["buffer_pos"]
        end = size - (size - head) % 4
        parts: list = []  # in index order: final parts, and the futures of body blocks
        if head:
            parts.append(_finish(gen.random(out=out[:head]), transform))
        counter, key = state["state"]["counter"], state["state"]["key"]
        pool = block_pool()
        for a in range(head, end, BLOCK_SIZE):
            parts.append(pool.submit(_draw_block, counter, key, (a - head) // 4,
                                     out[a:min(a + BLOCK_SIZE, end)], transform))
        bit_generator.advance((end - head) // 4)
        if end < size:
            parts.append(_finish(gen.random(out=out[end:]), transform))
        return (part if isinstance(part, np.ndarray) else part.result() for part in parts)


def _gap_parts(stream: SeededStream, rate: float, out: np.ndarray) -> Iterator[np.ndarray]:
    """Fill ``out`` with gaps -log(U) / rate from ``stream``; yield its parts in index order.

    The uniforms come from ``stream.fill_open``, and each part is final when
    yielded (see there): the tasks of a long request take the log and scale
    of their own blocks on the block pool.
    """

    def to_gaps(u: np.ndarray) -> None:
        np.log(u, out=u)
        u /= -rate  # IEEE division is sign-symmetric: the same bits as -log(U) / rate

    return stream.fill_open(out, to_gaps)


def exponential_gaps(stream: SeededStream, rate: float, size: int) -> np.ndarray:
    """``size`` exponential gaps -log(U) / rate (mean 1 / rate) drawn from ``stream``."""
    gaps = np.empty(size)
    for _ in _gap_parts(stream, rate, gaps):
        pass
    return gaps


def exponential_epochs(stream: SeededStream, rate: float, size: int) -> np.ndarray:
    """Cumulative sums of ``exponential_gaps(stream, rate, size)``, computed in one buffer.

    Each part of the gaps is summed as it arrives, its first element first
    taking the previous part's last sum.  ``np.cumsum`` adds left to right,
    so this is bit-identical to one ``np.cumsum`` over all the gaps.
    """
    epochs = np.empty(size)
    carry = None
    for part in _gap_parts(stream, rate, epochs):
        if carry is not None:
            part[0] += carry
        np.cumsum(part, out=part)
        carry = part[-1]
    return epochs
