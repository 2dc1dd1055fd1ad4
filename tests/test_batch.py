"""Block sampler and array primitives against the scalar code they mirror, bit for bit."""

import math

import numpy as np
import pytest

from qgeo import batch
from qgeo.batch import BLOCK, K
from qgeo.cli import main
from qgeo.diagrams import (
    _GROUPS,
    _sample_block,
    _sample_state,
    _sample_transform,
    _search_inputs,
    run_suite,
)
from qgeo.local_unitary import Variant
from qgeo.quaternion import Quaternion, chordal_distance

SEEDS = [0, 42, 2**32 + 5, 2**70]


def same_bits(x, y) -> bool:
    """Equal as bit patterns: tells -0.0 from 0.0 and matches NaN with NaN."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _linear(seed, idx, trials):
    """The uniforms of the first ``trials`` trials, read from position 0 of a fresh stream.

    The stream is what ``np.random.default_rng`` gives for the Philox bit
    generator, so anyone can reproduce the suite's draws with numpy's own API.
    """
    gen = np.random.default_rng(np.random.Philox(np.random.SeedSequence([seed, idx])))
    return gen.random(K * trials).reshape(trials, K)


def _at_counter(seed, idx, counter, trials):
    """``trials`` rows of uniforms from a fresh stream whose Philox counter is set to ``counter``."""
    bitgen = np.random.Philox(np.random.SeedSequence([seed, idx]))
    state = bitgen.state
    words = [counter >> (64 * w) & (2**64 - 1) for w in range(4)]
    state["state"]["counter"] = np.array(words, dtype=np.uint64)
    bitgen.state = state
    return np.random.Generator(bitgen).random((trials, K))


@pytest.mark.parametrize("seed", SEEDS)
def test_block_draws_match_default_rng(seed):
    # Consecutive blocks around a block boundary, as run_suite reads them.
    trials = BLOCK + 3
    ref = _linear(seed, 2, trials)
    for bounds in ((0, trials), (0, BLOCK - 3, BLOCK, trials)):
        blocks = [batch.uniforms(seed, 2, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert same_bits(np.concatenate(blocks), ref), bounds


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_offsets_match_the_linear_stream(seed):
    # Trial t starts at counter K t / 4: four 64-bit words per counter step.
    # The reference sets that counter directly; it is first checked against
    # the linear read, then used where no linear read can go.
    assert same_bits(_at_counter(seed, 5, 3 * K // 4, 2), _linear(seed, 5, 5)[3:])
    for t in (BLOCK - 1, 2**32 - 1, 2**40, 2**62 + 1):
        assert same_bits(batch.uniforms(seed, 5, t, t + 2), _at_counter(seed, 5, t * K // 4, 2)), t


@pytest.mark.parametrize("split", [BLOCK - 1, BLOCK, BLOCK + 1, 300])
def test_draws_do_not_depend_on_the_block_split(split):
    trials, seed = 1024, 42
    for group in _GROUPS:
        whole = _sample_block(group, seed, 0, trials)
        parts = _sample_block(group, seed, 0, split), _sample_block(group, seed, split, trials)
        for field in ("theta", "a", "b", "psi"):
            if getattr(whole, field) is None:
                continue
            joined = np.concatenate([getattr(part, field) for part in parts])
            assert same_bits(joined, getattr(whole, field)), (group.idx, field)


def test_reseeded_generator_starts_the_trials_stream():
    # Each one-trial read reseeds a fresh generator at the trial's counter; its
    # draws must start where the trial's row of a block read from 0 does.
    seed, trials = 7, BLOCK + 2
    blk = _sample_block(_GROUPS[1], seed, 0, trials)
    searched = _search_inputs(Variant.SU2_X_SO2, seed, 10, 0, trials)
    for t in (0, BLOCK - 1, BLOCK, BLOCK + 1):
        psi = _sample_state(seed, 1, t)
        assert same_bits(psi.amplitudes, blk.psi[t])
        u = _sample_transform(Variant.SO2_X_SU2, seed, 1, t)
        assert same_bits([u.rot.theta, u.su2.a, u.su2.b], [blk.theta[t], blk.a[t], blk.b[t]])
        assert _search_inputs(Variant.SU2_X_SO2, seed, 10, t, t + 1) == searched[t : t + 1]


def test_sampled_inputs_have_their_distributions():
    # Loose moment checks that catch a wrong Box-Muller or slot layout.
    u = batch.uniforms(3, 0, 0, 20000)
    g = batch._gaussians(u[:, :8])
    assert np.abs(g.mean(axis=0)).max() < 0.05
    assert np.abs(g.var(axis=0) - 1.0).max() < 0.05
    assert abs(np.corrcoef(g[:, 0], g[:, 1])[0, 1]) < 0.05
    psi = batch.haar_states(u)
    assert np.abs(np.mean(np.abs(psi) ** 2, axis=0) - 0.25).max() < 0.01
    theta, a, b = batch.local_unitary_params(u)
    assert np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max() < 1e-15
    assert abs(np.mean(np.abs(a) ** 2) - 0.5) < 0.01
    assert 0.0 <= theta.min() and theta.max() < 2 * math.pi
    assert abs(np.mean(theta) - math.pi) < 0.05


def test_negative_seed_raises_numpys_error(capsys):
    with pytest.raises(ValueError) as ref:
        np.random.SeedSequence([-1, 0])
    with pytest.raises(ValueError) as got:
        run_suite(1, -1)
    assert str(got.value) == str(ref.value)
    assert main(["verify", "--seed", "-1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {ref.value}\n"


# ---------------------------------------------------------------------------
# Array primitives against the interpreter's arithmetic
# ---------------------------------------------------------------------------


def _complex_samples(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    scale = rng.choice([1e-12, 1e-3, 1.0, 1e3, 1e12], size=(2, n))
    z = rng.standard_normal((2, n)) * scale
    w = rng.standard_normal((2, n)) * rng.choice([1e-6, 1.0, 1e6], size=(2, n))
    for x in (z, w):
        x[0, :50] = x[1, 50:100] = x[:, 100:150] = 0.0  # exact zeros
        rng.shuffle(x, axis=1)
    return (z[0], z[1]), (w[0], w[1])


def _pyc(z):
    return [complex(re, im) for re, im in zip(z[0].tolist(), z[1].tolist())]


def _split(values):
    return np.array([v.real for v in values]), np.array([v.imag for v in values])


def test_complex_arithmetic_matches_the_interpreter():
    a, b = _complex_samples()
    pa, pb = _pyc(a), _pyc(b)
    assert same_bits(batch.mul(a, b), _split([x * y for x, y in zip(pa, pb)]))
    assert same_bits(batch.add(a, b), _split([x + y for x, y in zip(pa, pb)]))
    assert same_bits(batch.sub(a, b), _split([x - y for x, y in zip(pa, pb)]))
    assert same_bits(batch.cabs(a), [abs(x) for x in pa])
    x = b[0][b[0] != 0]
    some = (a[0][: len(x)], a[1][: len(x)])
    pairs = list(zip(_pyc(some), x.tolist()))
    assert same_bits(batch.div_real(some, x), _split([z / r for z, r in pairs]))
    assert same_bits(batch.real_mul(x, some), _split([r * z for z, r in pairs]))


def test_pow_and_sum_are_the_interpreters():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20000)
    squares = batch.pow2(x)
    assert same_bits(squares, [v**2 for v in x.tolist()])
    # libm pow and x * x disagree on some inputs; the block follows pow.
    assert not same_bits(squares, x * x)
    terms = [rng.standard_normal(500) * 10.0**k for k in range(-3, 3)]
    rows = zip(*(t.tolist() for t in terms))
    assert same_bits(batch.interp_sum(terms), [sum(row) for row in rows])


def test_quaternion_operations_match_the_scalar_class():
    (a, b), (c, d) = _complex_samples(seed=2), _complex_samples(seed=3)
    p, q = (a, b), (c, d)
    ps = [Quaternion(z1, z2) for z1, z2 in zip(_pyc(a), _pyc(b))]
    qs = [Quaternion(z1, z2) for z1, z2 in zip(_pyc(c), _pyc(d))]

    def quat_rows(values):
        return _split([v.z1 for v in values]), _split([v.z2 for v in values])

    assert same_bits(batch.qmul(p, q), quat_rows([x * y for x, y in zip(ps, qs)]))
    invertible = batch.qnorm_sq(q) >= 1e-24
    inv = batch.qinverse(q)
    ref = quat_rows([y.inverse() for y, ok in zip(qs, invertible) if ok])
    assert same_bits([[part[invertible] for part in z] for z in inv], ref)
    assert same_bits(batch.chordal_distance(p, q), [chordal_distance(x, y) for x, y in zip(ps, qs)])
    assert same_bits(batch.qabs(p), [abs(x) for x in ps])
