"""``oamcomp.rng.binomial`` draws what numpy's ``Generator.binomial`` draws.

``binomial`` runs numpy's algorithms on the uniforms of any generator's
``random()``.  On ``numpy.random.default_rng(seed)`` it must return numpy's
own draw: known answers pinned from numpy 2.4.6, then a property with numpy
as the oracle.  On ``random.Random(seed)``, the generator the CLI seeds, its
draws and the sorter's are pinned, as every seeded output rests on them."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oamcomp.readout import sample_full_measurement
from oamcomp.rng import binomial
from oamcomp.state import from_amplitudes

SEEDS = [0, 7, 2**64 + 1]

#: ``(n, p)`` of the pinned binomial draws: inversion (``n p <= 30``), BTPE,
#: both mirrored for ``p > 0.5``, the draws that return at once (``n = 0``,
#: ``p = 0``) or take one uniform (``p = 1``), the largest run count at
#: ``p`` one rounding step from 1 (BTPE on ``1 - p``, mirrored), and the
#: smallest positive ``p``.
CASES = [(20, 0.3), (1000, 0.3), (20, 0.8), (1000, 0.9), (0, 0.5), (50, 0.0), (50, 1.0),
         (2**53, 1 - 1e-12), (61, 0.5), (10**6, 5e-324)]

#: ``numpy.random.default_rng(seed).binomial(n, p)``, one fresh generator
#: per draw, for each ``(n, p)`` of ``CASES``.
BINOMIAL = {
    0: [7, 320, 15, 908, 0, 0, 50, 9007199254731867, 32, 0],
    7: [7, 301, 16, 894, 0, 0, 50, 9007199254731998, 36, 0],
    2**64 + 1: [7, 277, 15, 902, 0, 0, 50, 9007199254731843, 33, 0],
}

#: ``binomial(random.Random(seed), n, p)``, one fresh generator per draw,
#: for each ``(n, p)`` of ``CASES``.
SEEDED = {
    0: [8, 311, 14, 892, 0, 0, 50, 9007199254731924, 24, 0],
    7: [5, 310, 17, 893, 0, 0, 50, 9007199254731928, 35, 0],
    2**64 + 1: [3, 284, 18, 909, 0, 0, 50, 9007199254732105, 28, 0],
}

#: The first three ``random()`` draws of ``random.Random(seed)``.
UNIFORM = {
    0: ["0x1.b0580f98a7dbep-1", "0x1.84129978f9c1ap-1", "0x1.aeaa51052e978p-2"],
    7: ["0x1.4b9ad0f953a6ep-2", "0x1.34f0696513270p-3", "0x1.4d474883171ffp-1"],
    2**64 + 1: ["0x1.a0cdc9b6cf9f0p-4", "0x1.731a51dbd35d1p-1", "0x1.00be92f33db62p-2"],
}

#: Eight successive sorter draws from ``random.Random(seed)`` on a register
#: whose Born weights are ``[0.1, 0.2, 0.3, 0.4]``.
CHOICE = {
    0: [3, 3, 2, 1, 2, 2, 3, 2],
    7: [2, 1, 3, 0, 2, 2, 0, 2],
    2**64 + 1: [1, 3, 1, 3, 0, 2, 2, 3],
}

#: ``numpy.random.default_rng(seed).binomial(2**53, 1 - 1e-12)`` draws that
#: BTPE settles by its Stirling bound, which numpy computes from ``n + 1 - m``
#: and ``n - y + 1`` in double precision; exact integers there give other
#: counts.
STIRLING = {106: 9007199254732046, 146: 9007199254731939, 208: 9007199254732040}


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_binomial_draws(seed):
    assert [binomial(np.random.default_rng(seed), n, p) for n, p in CASES] == BINOMIAL[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_seeded_draws(seed):
    assert [binomial(random.Random(seed), n, p) for n, p in CASES] == SEEDED[seed]


@pytest.mark.parametrize("seed", STIRLING)
def test_pinned_stirling_bound_draws(seed):
    assert binomial(np.random.default_rng(seed), 2**53, 1 - 1e-12) == STIRLING[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_uniform_stream(seed):
    rng = random.Random(seed)
    assert [rng.random() for _ in UNIFORM[seed]] == list(map(float.fromhex, UNIFORM[seed]))


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_choice_draws(seed):
    state = from_amplitudes(0, [math.sqrt(w) for w in (0.1, 0.2, 0.3, 0.4)], 2)
    rng = random.Random(seed)
    assert [sample_full_measurement(state, 0, rng) for _ in range(8)] == CHOICE[seed]


def test_successive_draws_share_one_stream():
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    draws = [binomial(ours, 1000, 0.3) for _ in range(5)]
    assert draws == [int(theirs.binomial(1000, 0.3)) for _ in range(5)]
    assert draws == [301, 295, 288, 277, 305]
    assert ours.random() == theirs.random()
    seeded = random.Random(7)
    assert [binomial(seeded, 1000, 0.3) for _ in range(5)] == [310, 326, 313, 288, 289]


@pytest.mark.parametrize("p", [math.nan, -1e-300, 1.0 + 2**-52, math.inf, -math.inf])
def test_p_outside_the_unit_interval_raises(p):
    with pytest.raises(ValueError, match="p must be in"):
        binomial(random.Random(0), 10, p)


@pytest.mark.parametrize("n", [-1, 2**53 + 1, 2**63, 1.5, True])
def test_bad_trial_count_raises(n):
    with pytest.raises(ValueError, match=r"n must be an integer in \[0, 2\*\*53\]"):
        binomial(random.Random(0), n, 0.5)


def test_largest_trial_count_draws():
    assert binomial(random.Random(0), 2**53, 0.5) == 4503599658385282
    assert binomial(np.random.default_rng(0), 2**53, 0.5) == int(
        np.random.default_rng(0).binomial(2**53, 0.5))


seeds = st.one_of(st.integers(0, 2**16), st.integers(0, 2**140))
#: Probabilities that reach both algorithms, the mirror and the edges.
probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
    st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-12, 1.0 - 1e-12]),
)
trials = st.one_of(st.integers(0, 100), st.integers(0, 10**9), st.integers(0, 2**53))


@settings(max_examples=300, deadline=None)
@given(seed=seeds, n=trials, p=probabilities)
@example(seed=106, n=2**53, p=1.0 - 1e-12)
@example(seed=7, n=2**53, p=1e-12)
@example(seed=0, n=2**53, p=0.3)
@example(seed=2**64 + 1, n=31, p=1.0)
@example(seed=0, n=60, p=0.5)  # p n = 30: inversion
@example(seed=0, n=120, p=0.75)  # (1 - p) n = 30: inversion, mirrored
def test_binomial_matches_numpy(seed, n, p):
    """``binomial`` on numpy's generator is numpy's own draw, three times
    running; then one uniform: each draw took as many uniforms from the
    stream as numpy's did."""
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert binomial(ours, n, p) == int(numpy_rng.binomial(n, p))
    assert ours.random() == numpy_rng.random()
