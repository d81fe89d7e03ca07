"""numpy's default random generator in plain Python, draw for draw.

``default_rng(seed)`` returns a :class:`Generator` whose draws are bit for
bit those of ``numpy.random.default_rng(seed)``: a PCG64 bit generator
(128-bit LCG, XSL-RR output) seeded through numpy's ``SeedSequence``, and
the three draws the CLI samples with: :meth:`~Generator.random`,
:meth:`~Generator.binomial` and :meth:`~Generator.choice` with weights, each
the algorithm numpy runs for it.  Seeded output therefore stays what it was
when numpy drew it, without importing numpy, and does not change when
numpy's own streams do.  This module imports no numpy.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: ``SeedSequence``'s hash constants and pool size (32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: ``choice`` accepts weights whose sum is within this of 1 (``sqrt(eps)``).
_SUM_TOL = math.sqrt(2.0**-52)


def _seed_state(seed: int) -> tuple[int, int]:
    """The PCG64 ``(state, increment)`` of ``SeedSequence(seed)``: the
    seed's 32-bit words, least significant first, are hashed into a pool of
    four words, which ``generate_state(4, uint64)`` stretches to the 128-bit
    initial state and stream."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const, words = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    # Pairs of 32-bit words, low word first, make the four 64-bit words
    # ``s_hi, s_lo, i_hi, i_lo`` of the state and the stream.
    s_hi, s_lo, i_hi, i_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    increment = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # PCG's seeding: step from state 0, add the initial state, step again.
    state = (increment + (s_hi << 64 | s_lo)) & _MASK128
    return (state * _PCG_MULT + increment) & _MASK128, increment


class Generator:
    """numpy's ``Generator(PCG64(seed))`` for the draws this package makes."""

    __slots__ = ("_state", "_increment")

    def __init__(self, seed: int) -> None:
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self._state, self._increment = _seed_state(seed)

    def _next64(self) -> int:
        """Step the LCG and return the XSL-RR output of the new state."""
        state = self._state = (self._state * _PCG_MULT + self._increment) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def random(self) -> float:
        """A double uniform on ``[0, 1)``: the top 53 bits of one output."""
        return (self._next64() >> 11) * 2.0**-53

    def binomial(self, n: int, p: float) -> int:
        """Successes in ``n`` trials of probability ``p``, drawn as numpy
        draws them: by inversion when ``min(p, 1 - p) * n <= 30``, else by
        BTPE, on ``1 - p`` and mirrored when ``p > 0.5``."""
        if type(n) is not int or not 0 <= n <= 2**63 - 1:
            raise ValueError(f"n must be an integer in [0, 2**63), got {n!r}")
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    def choice(self, a: int, p) -> int:
        """An index in ``range(a)`` drawn with weights ``p``, as
        ``Generator.choice(a, p=p)`` draws it: ``bisect_right`` of one
        :meth:`random` in the cumulative sums divided by the last."""
        p = [float(x) for x in p]
        if a < 1 or len(p) != a:
            raise ValueError(f"need {a} >= 1 weights, got {len(p)}")
        if not all(x >= 0.0 for x in p) or not abs(math.fsum(p) - 1.0) <= _SUM_TOL:
            raise ValueError("weights must be non-negative and sum to 1")
        cdf = list(accumulate(p))
        total = cdf[-1]
        return bisect.bisect_right([x / total for x in cdf], self.random())

    def _inversion(self, n: int, p: float) -> int:
        """numpy's inversion sampler, for ``p <= 0.5`` and ``n p <= 30``."""
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        mean = n * p
        bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
        x, px, u = 0, qn, self.random()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        """numpy's BTPE sampler (Kachitvichyanukul and Schmeiser), for
        ``p <= 0.5`` and ``n p > 30``.  Every step is numpy's, in its
        order of double operations; only ``log(0)`` is guarded, which C
        takes as ``-inf``."""
        r, q = p, 1.0 - p
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:
            u = self.random() * p4
            v = self.random()
            if u <= p1:  # the triangle: accept at once
                y = math.floor(xm - p1 * v + u)
                break
            if u <= p2:  # the parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # the left exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # the right exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:
                # Evaluate the density ratio f(y) / f(m) by recursion.
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                break
            # Squeeze on log(v), then the Stirling bound on log(f(y) / f(m)).
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = math.log(v) if v > 0.0 else -math.inf
            if big_a < t - rho:
                break
            if big_a > t + rho:
                continue
            x1, f1 = y + 1.0, m + 1.0
            z, w = float(n) + 1.0 - m, float(n) - y + 1.0
            bound = (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                     + (y - m) * math.log(w * r / (x1 * q))
                     + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w))
            if big_a > bound:
                continue
            break
        return y


def _stirling(x: float) -> float:
    """The Stirling series term of BTPE's bound at ``x``."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def default_rng(seed: int) -> Generator:
    """The generator ``numpy.random.default_rng(seed)`` would return, for an
    integer ``seed >= 0``."""
    return Generator(seed)
