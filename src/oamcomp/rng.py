"""numpy's binomial sampler in plain Python, on any generator's uniforms.

:func:`binomial` runs the algorithms numpy's ``Generator.binomial`` runs, in
its order of double operations, on the uniforms of ``rng.random()``: given
``numpy.random.default_rng(seed)`` it returns that generator's own draw, and
the CLI passes it a ``random.Random(seed)``, whose ``random()`` stream CPython
keeps across releases.  The standard library's ``binomialvariate`` (3.12+)
is not used: its acceptance test loses accuracy at large ``n``.  This module
imports no numpy.
"""

from __future__ import annotations

import math


def binomial(rng, n: int, p: float) -> int:
    """Successes in ``n`` trials of probability ``p``, drawn from the
    uniforms of ``rng.random()`` as numpy draws them: by inversion when
    ``min(p, 1 - p) * n <= 30``, else by BTPE, on ``1 - p`` and mirrored
    when ``p > 0.5``.  ``n`` is at most ``2**53``, up to which a double holds
    every count exactly; above it the draws need not be numpy's."""
    if type(n) is not int or not 0 <= n <= 2**53:
        raise ValueError(f"n must be an integer in [0, 2**53], got {n!r}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(rng, n, p) if p * n <= 30.0 else _btpe(rng, n, p)
    q = 1.0 - p
    return n - (_inversion(rng, n, q) if q * n <= 30.0 else _btpe(rng, n, q))


def _inversion(rng, n: int, p: float) -> int:
    """numpy's inversion sampler, for ``p <= 0.5`` and ``n p <= 30``."""
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, rng.random()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, rng.random()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(rng, n: int, p: float) -> int:
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
        u = rng.random() * p4
        v = rng.random()
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
