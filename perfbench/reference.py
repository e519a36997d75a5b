"""Host speed sampling, so that request times can be normalized.

On a shared host the same request runs 20-40% slower for seconds at a time,
with no steal time reported, and these phases change faster than a heavy
request completes.  ``SpeedSampler`` times a short fixed reference
computation every ``interval`` seconds of process CPU time, from a SIGPROF
handler, so samples are taken during a request as well as between requests.
A request's normalized time is its own time (minus the sampler's) multiplied
by the mean of 1/(sample duration) over the samples taken while it ran: the
number of reference computations the host could have done meanwhile.  Host
slowdowns stretch both alike and largely cancel.

The reference mixes the kinds of work odeobs does (exact rational
arithmetic on growing integers, small immutable nodes, recursion, dictionary
lookups, float list arithmetic as in RK4) and never calls odeobs, so a
change to odeobs cannot change it.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction
from typing import List, Tuple

SAMPLE_DEPTH = 7  # one sample is about a millisecond
SAMPLE_INTERVAL_S = 0.05
NEAREST = 5


def _tree(rng: random.Random, depth: int):
    if depth == 0:
        return ("leaf", rng.randint(-1000, 1000))
    op = "add" if rng.random() < 0.5 else "mul"
    return (op, _tree(rng, depth - 1), _tree(rng, depth - 1))


def _value(node, memo: dict) -> Fraction:
    key = id(node)
    if key in memo:
        return memo[key]
    if node[0] == "leaf":
        result = Fraction(node[1], 7)
    elif node[0] == "add":
        result = _value(node[1], memo) + _value(node[2], memo)
    else:
        result = _value(node[1], memo) * _value(node[2], memo) / 3
    memo[key] = result
    return result


def _float_steps(n: int) -> float:
    x = [1.0 + i / 10.0 for i in range(8)]
    for _ in range(n):
        dx = [0.5 * x[i - 1] * x[i] - 0.5 * x[i] * x[(i + 1) % 8] for i in range(8)]
        x = [a + 0.01 * b for a, b in zip(x, dx)]
    return sum(x)


def reference_work() -> int:
    value = _value(_tree(random.Random(12345), SAMPLE_DEPTH), {})
    _float_steps(100)
    return value.numerator.bit_length() + value.denominator.bit_length()


class SpeedSampler:
    """Collects the durations of the reference computation while active."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: List[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalize(self, first: int, last: int, elapsed: float) -> Tuple[float, float]:
        """(own time, normalized time) of a request that ran while samples[first:last] were taken.

        With fewer than ``NEAREST`` samples inside the request, the latest
        ``NEAREST`` samples stand in, to smooth the noise of single samples.
        """
        inside = self.samples[first:last]
        own = elapsed - sum(inside)
        used = inside if len(inside) >= NEAREST else self.samples[max(0, last - NEAREST):last]
        return own, own * sum(1.0 / d for d in used) / len(used)
