"""Block sampler and array primitives against the scalar code they mirror, bit for bit."""

import numpy as np
import pytest

from qgeo import batch
from qgeo.batch import BLOCK, BlockSampler
from qgeo.cli import main
from qgeo.diagrams import run_suite
from qgeo.local_unitary import Variant, random_local_unitary
from qgeo.quaternion import Quaternion, chordal_distance
from qgeo.states import haar_random_one_qubit, haar_random_state

SEEDS = [0, 42, 2**32 + 5, 2**70]


def same_bits(x, y) -> bool:
    """Equal as bit patterns: tells -0.0 from 0.0 and matches NaN with NaN."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_states_match_seed_sequence(seed):
    for start, stop in ((0, 3), (BLOCK - 2, BLOCK + 2), (2**32, 2**32 + 2)):
        got = batch.pcg64_states(seed, 3, 1, start, stop)
        for t, (state, inc) in zip(range(start, stop), got):
            ref = np.random.default_rng([seed, 3, t, 1]).bit_generator.state["state"]
            assert (state, inc) == (ref["state"], ref["inc"]), t


def test_pcg64_states_reject_a_block_straddling_two_word_trials():
    with pytest.raises(ValueError):
        batch.pcg64_states(0, 0, 0, 2**32 - 1, 2**32 + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_draws_match_default_rng(seed):
    # Two consecutive blocks around a block boundary, as run_suite draws them.
    halves = ((BLOCK - 3, BLOCK), (BLOCK, BLOCK + 3))
    trials = range(BLOCK - 3, BLOCK + 3)

    states = BlockSampler(seed, 2, 1)
    psi = np.concatenate([batch.haar_states(states, lo, hi)[0] for lo, hi in halves])
    ref = np.array([haar_random_state([seed, 2, t, 1]).amplitudes for t in trials])
    assert same_bits(psi, ref)

    one = np.concatenate([batch.haar_one_qubit_states(states, lo, hi)[0] for lo, hi in halves])
    ref = np.array([[p.a1, p.a2] for p in (haar_random_one_qubit([seed, 2, t, 1]) for t in trials)])
    assert same_bits(one, ref)

    transforms = BlockSampler(seed, 2, 0)
    parts = [batch.local_unitary_params(transforms, lo, hi) for lo, hi in halves]
    theta, a, b, redo = (np.concatenate(x) for x in zip(*parts))
    refs = [random_local_unitary(Variant.SO2_X_SU2, [seed, 2, t, 0]) for t in trials]
    assert same_bits(theta, [u.rot.theta for u in refs])
    assert same_bits(a, [u.su2.a for u in refs])
    assert same_bits(b, [u.su2.b for u in refs])
    assert not redo.any()


def test_reseeded_generator_starts_the_trials_stream():
    gen = BlockSampler(42, 5, 1).reseeded(BLOCK + 7)
    ref = np.random.default_rng([42, 5, BLOCK + 7, 1])
    assert same_bits(gen.standard_normal(6), ref.standard_normal(6))


def test_negative_seed_raises_numpys_error(capsys):
    with pytest.raises(ValueError) as ref:
        np.random.default_rng([-1, 0, 0, 0])
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
    nonzero = (b[0] != 0) | (b[1] != 0)
    a_nz, b_nz = (a[0][nonzero], a[1][nonzero]), (b[0][nonzero], b[1][nonzero])
    quotients = [x / y for x, y in zip(_pyc(a_nz), _pyc(b_nz))]
    assert same_bits(batch.quot(a_nz, b_nz), _split(quotients))
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
