"""``oamcomp.rng`` draws what ``numpy.random.default_rng`` draws.

Known answers pinned from numpy 2.4.6, then properties with numpy as the
oracle: the uniform stream, ``binomial`` on both of its algorithms, and
``choice`` with weights."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oamcomp.rng import Generator, default_rng

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

#: The first three ``random()`` draws of each seed.
UNIFORM = {
    0: ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"],
    7: ["0x1.400c8353e3ca9p-1", "0x1.cb5f9b795e4cdp-1", "0x1.8d26acbf2815fp-1"],
    2**64 + 1: ["0x1.6271e9b3f3e1fp-1", "0x1.c96883be2ada0p-3", "0x1.9e868dc785262p-1"],
}

#: Eight successive ``choice(4, p=[0.1, 0.2, 0.3, 0.4])`` draws of each seed.
CHOICE = {
    0: [3, 1, 0, 0, 3, 3, 3, 3],
    7: [3, 3, 3, 1, 2, 3, 0, 3],
    2**64 + 1: [3, 1, 3, 1, 2, 3, 3, 1],
}

#: ``binomial(2**53, 1 - 1e-12)`` draws that BTPE settles by its Stirling
#: bound, which numpy computes from ``n + 1 - m`` and ``n - y + 1`` in
#: double precision; exact integers there give other counts.
STIRLING = {106: 9007199254732046, 146: 9007199254731939, 208: 9007199254732040}


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_binomial_draws(seed):
    assert [default_rng(seed).binomial(n, p) for n, p in CASES] == BINOMIAL[seed]


@pytest.mark.parametrize("seed", STIRLING)
def test_pinned_stirling_bound_draws(seed):
    assert default_rng(seed).binomial(2**53, 1 - 1e-12) == STIRLING[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_uniform_stream(seed):
    rng = default_rng(seed)
    assert [rng.random() for _ in UNIFORM[seed]] == list(map(float.fromhex, UNIFORM[seed]))


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_choice_draws(seed):
    rng = default_rng(seed)
    assert [rng.choice(4, p=[0.1, 0.2, 0.3, 0.4]) for _ in range(8)] == CHOICE[seed]


def test_successive_draws_share_one_stream():
    rng = default_rng(7)
    assert [rng.binomial(1000, 0.3) for _ in range(5)] == [301, 295, 288, 277, 305]


@pytest.mark.parametrize("p", [math.nan, -1e-300, 1.0 + 2**-52, math.inf, -math.inf])
def test_p_outside_the_unit_interval_raises(p):
    with pytest.raises(ValueError, match="p must be in"):
        default_rng(0).binomial(10, p)


@pytest.mark.parametrize("n", [-1, 2**63, 1.5, True])
def test_bad_trial_count_raises(n):
    with pytest.raises(ValueError, match="n must be"):
        default_rng(0).binomial(n, 0.5)


@pytest.mark.parametrize("seed", [-1, 1.0, "1", True])
def test_bad_seed_raises(seed):
    with pytest.raises(ValueError, match="seed"):
        Generator(seed)


@pytest.mark.parametrize("a, p", [(2, [0.5, 0.6]), (2, [1.5, -0.5]), (3, [0.5, 0.5]),
                                  (0, []), (2, [math.nan, 1.0])])
def test_bad_choice_weights_raise(a, p):
    with pytest.raises(ValueError):
        default_rng(0).choice(a, p=p)


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
@example(seed=7, n=2**53, p=1.0 - 1e-12)
@example(seed=0, n=2**53, p=0.3)
@example(seed=2**64 + 1, n=31, p=1.0)
def test_binomial_matches_numpy(seed, n, p):
    """Three successive draws, then one uniform: the draws agree, and each
    took as many uniforms from the stream as numpy's did."""
    ours, numpy_rng = default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert ours.binomial(n, p) == int(numpy_rng.binomial(n, p))
    assert ours.random() == numpy_rng.random()


@settings(max_examples=100, deadline=None)
@given(seed=seeds, count=st.integers(1, 64))
def test_uniform_stream_matches_numpy(seed, count):
    ours, numpy_rng = default_rng(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(count)] == [numpy_rng.random() for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(seed=seeds, weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                                    min_size=1, max_size=16))
def test_choice_matches_numpy(seed, weights):
    if not sum(weights) > 0.0:
        weights = [*weights[:-1], 1.0]
    total = sum(weights)
    p = [w / total for w in weights]
    ours, numpy_rng = default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert ours.choice(len(p), p=p) == int(numpy_rng.choice(len(p), p=p))
