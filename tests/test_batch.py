"""Block sampler and array primitives against the scalar code they mirror, bit for bit."""

import csv
import io
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_no_child_left
from qgeo import batch, sampling
from qgeo.batch import BLOCK, Split
from qgeo.cli import main
from qgeo.diagrams import _GROUPS, _sample_trials, run_suite
from qgeo.local_unitary import (
    LocalUnitary, SO2Element, SU2Element, Variant, _su2_action, apply_cb, random_local_unitary, random_su2,
)
from qgeo.quaternion import Quaternion, _s4_coords, chordal_distance
from qgeo.sampling import K
from qgeo.states import TwoQubitState, haar_random_one_qubit, haar_random_state, wootters_preconcurrence

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
        blocks = [sampling.uniforms(seed, 2, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert same_bits(np.concatenate(blocks), ref), bounds


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_offsets_match_the_linear_stream(seed):
    # Trial t starts at counter K t / 4: four 64-bit words per counter step.
    # The reference sets that counter directly; it is first checked against
    # the linear read, then used where no linear read can go.
    assert same_bits(_at_counter(seed, 5, 3 * K // 4, 2), _linear(seed, 5, 5)[3:])
    for t in (BLOCK - 1, 2**32 - 1, 2**40, 2**62 + 1):
        assert same_bits(sampling.uniforms(seed, 5, t, t + 2), _at_counter(seed, 5, t * K // 4, 2)), t


@pytest.mark.parametrize("split", [BLOCK - 1, BLOCK, BLOCK + 1, 300])
def test_draws_do_not_depend_on_the_block_split(split):
    trials, seed = 2 * BLOCK + 3, 42  # every split lies inside
    for group in _GROUPS:
        whole = _sample_trials(group, seed, 0, trials)
        parts = _sample_trials(group, seed, 0, split), _sample_trials(group, seed, split, trials)
        for field in ("theta", "a", "b", "psi"):
            if getattr(whole, field) is None:
                continue
            joined = np.concatenate([getattr(part, field) for part in parts])
            assert same_bits(joined, getattr(whole, field)), (group.idx, field)


def test_reseeded_generator_starts_the_trials_stream():
    # Each public sampler reseeds a fresh generator at its trial's counter; what
    # it draws must be, bit for bit, row t of a block read of (seed, idx) from 0.
    seed, trials = 7, BLOCK + 2
    searched = _sample_trials(_GROUPS[10], seed, 0, trials)
    for idx in (0, 1, 10, 2**40):
        u = sampling.uniforms(seed, idx, 0, trials)
        psi, one = sampling.haar_rows(u, 4), sampling.haar_rows(u, 2)
        theta, a, b = sampling.local_unitary_params(u)
        for t in (0, BLOCK - 1, BLOCK, BLOCK + 1):
            assert same_bits(haar_random_state(seed, idx, t).amplitudes, psi[t]), (idx, t)
            q = haar_random_one_qubit(seed, idx, t)
            assert same_bits([q.a1, q.a2], one[t]), (idx, t)
            for variant in Variant:
                g = random_local_unitary(variant, seed, idx, t)
                assert g.variant is variant
                assert same_bits([g.rot.theta, g.su2.a, g.su2.b], [theta[t], a[t], b[t]]), (idx, t)
            su2 = random_su2(seed, idx, t)
            assert same_bits([su2.a, su2.b], [a[t], b[t]]), (idx, t)
    for t in (0, BLOCK - 1, BLOCK, BLOCK + 1):
        one = _sample_trials(_GROUPS[10], seed, t, t + 1)
        for field in ("theta", "a", "b", "psi"):
            assert same_bits(getattr(one, field), getattr(searched, field)[t : t + 1]), (t, field)


def test_sampled_inputs_have_their_distributions():
    # Loose moment checks, with no scipy, that catch a wrong slot layout.
    u = sampling.uniforms(3, 0, 0, 20000)
    theta, a, b = sampling.local_unitary_params(u)
    for rows in (sampling.haar_rows(u, 4), sampling.haar_rows(u, 2), np.stack([a, b], axis=1)):
        assert np.abs(np.sum(rows.real**2 + rows.imag**2, axis=1) - 1.0).max() < 1e-15
        assert np.abs(np.mean(np.abs(rows) ** 2, axis=0) - 1.0 / rows.shape[1]).max() < 0.01
        assert np.abs(np.mean(rows, axis=0)).max() < 0.02  # uniform phases
    assert 0.0 <= theta.min() and theta.max() < 2 * math.pi
    assert abs(np.mean(theta) - math.pi) < 0.05


def test_haar_rows_have_their_distributions():
    # Deterministic (one fixed stream), so the p-value bounds cannot flake;
    # the moment bounds are about six standard errors of 200 000 draws.
    stats = pytest.importorskip("scipy.stats")
    u = sampling.uniforms(11, 0, 0, 200_000)
    psi = sampling.haar_rows(u, 4)
    one = sampling.haar_rows(u, 2)
    theta, a, b = sampling.local_unitary_params(u)
    # Haar on C^d: |psi_i|^2 is Beta(1, d - 1), uniform on [0, 1] for d = 2.
    for col in psi.T:
        assert stats.kstest(np.abs(col) ** 2, "beta", args=(1, 3)).pvalue > 1e-3
    for col in (a, one[:, 0]):
        assert stats.kstest(np.abs(col) ** 2, "uniform").pvalue > 1e-3
    # Phases and the rotation angle, as fractions of a turn, are uniform.
    for col in (*psi.T, *one.T, a, b):
        assert stats.kstest(np.angle(col) / (2 * math.pi) % 1.0, "uniform").pvalue > 1e-3
    assert 0.0 <= theta.min() and theta.max() < 2 * math.pi
    assert stats.kstest(theta / (2 * math.pi), "uniform").pvalue > 1e-3
    # E|psi_i|^4 = 2 / (d (d + 1)) = 1/10 for d = 4, and E|a|^4 = 1/3.
    assert np.abs(np.mean(np.abs(psi) ** 4, axis=0) - 0.1).max() < 0.002
    assert abs(np.mean(np.abs(a) ** 4) - 1.0 / 3.0) < 0.004


@pytest.mark.parametrize("n", [2, 4])
def test_haar_moduli_are_roots_of_exact_spacings(n):
    # With the phase columns at 0, (cos, sin) is exactly (1, 0) and a row is
    # its moduli.  On the 2**-53 grid the spacings of the sorted uniforms are
    # doubles that add up to exactly 1, and each modulus is their sqrt.  The
    # compare-exchange network gives the bits of numpy's sort and diff.
    u = sampling.uniforms(5, 0, 0, 3000)[:, : 2 * n - 1]
    edges = 2.0**-53 * np.array([0, 1, 2**52, 2**53 - 1])
    u[:1000, : n - 1] = np.random.default_rng(n).choice(edges, size=(1000, n - 1))
    u[1000:2000, : n - 1] = u[1000:2000, :1]  # ties
    u[2000:2050, : n - 1] = edges[0]
    u[2050:2100, : n - 1] = edges[-1]
    u[:, n - 1 :] = 0.0
    rows = sampling.haar_rows(u, n)
    assert same_bits(rows.imag, np.zeros_like(rows.imag))
    ordered = np.sort(u[:, : n - 1], axis=1)
    assert same_bits(rows.real, np.sqrt(np.diff(ordered, prepend=0.0, append=1.0, axis=1)))
    for cuts, moduli in zip(ordered.tolist(), rows.real):
        cuts = [Fraction(0), *map(Fraction, cuts), Fraction(1)]
        spacings = [float(hi - lo) for lo, hi in zip(cuts, cuts[1:])]
        assert sum(map(Fraction, spacings)) == 1
        assert same_bits(moduli, np.sqrt(spacings))


def test_zero_uniforms_give_the_last_basis_row():
    u = np.zeros((1, K))
    assert same_bits(sampling.haar_rows(u, 4), [[0j, 0j, 0j, 1 + 0j]])
    assert same_bits(sampling.haar_rows(u, 2), [[0j, 1 + 0j]])
    theta, a, b = sampling.local_unitary_params(u)
    assert same_bits(theta, [0.0]) and same_bits([a, b], [[0j], [1 + 0j]])


def _worst_ulps(got, exact) -> float:
    """max |got - exact| in units in the last place of the doubles nearest ``exact``."""
    worst = 0.0
    for g, e in zip(got.tolist(), exact):
        nearest = float(e)
        if nearest == 0.0:
            assert g == 0.0, (g, e)
            continue
        worst = max(worst, float(abs(e - g)) / math.ulp(nearest))
    return worst


def test_cos_sin_kernel_is_within_one_ulp():
    # Generator.random returns multiples of 2**-53 in [0, 1); the kernel is
    # exact at the quadrant points and within 1 ulp elsewhere on that grid.
    mpmath = pytest.importorskip("mpmath")
    edges = [0.0, 2.0**-53, 1.0 - 2.0**-53, 0.125, 0.25, 0.5, 0.75]
    u = np.concatenate([edges, sampling.uniforms(1, 0, 0, 1250).ravel()])
    cos, sin = sampling._cos_sin_2pi(u)
    assert (cos[0], sin[0]) == (1.0, 0.0)
    assert cos[3] == sin[3] == math.sqrt(0.5)
    assert [(cos[i], sin[i]) for i in (4, 5, 6)] == [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    with mpmath.workprec(160):
        x = [mpmath.mpf(v) for v in u.tolist()]
        assert _worst_ulps(cos, [mpmath.cospi(2 * t) for t in x]) <= 1.0
        assert _worst_ulps(sin, [mpmath.sinpi(2 * t) for t in x]) <= 1.0


def test_negative_seed_raises_numpys_error(capsys):
    with pytest.raises(ValueError) as ref:
        np.random.SeedSequence([-1, 0])
    with pytest.raises(ValueError) as got:
        run_suite(1, -1)
    assert str(got.value) == str(ref.value)
    assert main(["verify", "--seed", "-1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {ref.value}\n"


def test_seeds_that_are_not_integers_raise():
    # numpy alone reads a nested list as a seed of another stream, so an old
    # call such as haar_random_state([101, trial, 1]) must fail, not draw.
    for draw in (
        lambda: haar_random_state([101, 3, 1]),
        lambda: haar_random_one_qubit(1, [0]),
        lambda: random_local_unitary(Variant.SO2_X_SU2, [3, 4]),
        lambda: random_su2(2.0),
        lambda: sampling.uniforms(1, 0, 0.0, 1),
    ):
        with pytest.raises(TypeError):
            draw()
    with pytest.raises(ValueError, match="not a range of non-negative integers"):
        haar_random_state(1, 0, -1)


# ---------------------------------------------------------------------------
# Block number types against the interpreter's arithmetic
# ---------------------------------------------------------------------------


def _complex_samples(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    scale = rng.choice([1e-12, 1e-3, 1.0, 1e3, 1e12], size=(2, n))
    z = rng.standard_normal((2, n)) * scale
    w = rng.standard_normal((2, n)) * rng.choice([1e-6, 1.0, 1e6], size=(2, n))
    for x in (z, w):
        x[0, :50] = x[1, 50:100] = x[:, 100:150] = 0.0  # exact zeros
        x[1, 150:200] = -0.0  # signed zeros
        rng.shuffle(x, axis=1)
    return Split(z[0], z[1]), Split(w[0], w[1])


def _pyc(z):
    return [complex(re, im) for re, im in zip(z.real.tolist(), z.imag.tolist())]


def _parts(values):
    """The (real, imag) arrays of a list of complex numbers, or of a Split."""
    if isinstance(values, Split):
        return values.real, values.imag
    return np.array([v.real for v in values]), np.array([v.imag for v in values])


def test_complex_arithmetic_matches_the_interpreter():
    a, b = _complex_samples()
    pa, pb = _pyc(a), _pyc(b)
    assert same_bits(_parts(a * b), _parts([x * y for x, y in zip(pa, pb)]))
    assert same_bits(_parts(a + b), _parts([x + y for x, y in zip(pa, pb)]))
    assert same_bits(_parts(a - b), _parts([x - y for x, y in zip(pa, pb)]))
    assert same_bits(abs(a), [abs(x) for x in pa])
    assert same_bits(_parts(-a.conjugate()), _parts([-x.conjugate() for x in pa]))
    # A real operand, as a float64 array, a float or a negative float, is
    # promoted to complex(x, 0.0): x + z gives -0.0 + 0.0 = 0.0 in the
    # imaginary part, z - x keeps -0.0, and a negative divisor flips 0.0 / x.
    x = b.real[b.real != 0]
    z = Split(a.real[: len(x)], a.imag[: len(x)])
    pairs = list(zip(_pyc(z), x.tolist()))
    assert np.any(np.signbit(z.imag) & (z.imag == 0)) and np.any(x < 0)
    cases = [
        (x + z, [r + w for w, r in pairs]),
        (z + x, [w + r for w, r in pairs]),
        (x - z, [r - w for w, r in pairs]),
        (z - x, [w - r for w, r in pairs]),
        (x * z, [r * w for w, r in pairs]),
        (z * x, [w * r for w, r in pairs]),
        (z / x, [w / r for w, r in pairs]),
    ]
    for scalar in (2.0, -0.5, 3):
        cases += [(scalar * z, [scalar * w for w in _pyc(z)]), (z + scalar, [w + scalar for w in _pyc(z)])]
    # A Python complex operand, as in the Wootters form's entries.
    cases.append((1j * z, [1j * w for w in _pyc(z)]))
    cases.append(((-1 + 0j) - z, [(-1 + 0j) - w for w in _pyc(z)]))
    for got, want in cases:
        assert same_bits(_parts(got), _parts(want))


def test_chordal_metric_squares_by_multiplication():
    # On this pair libm's pow squares the first coordinate difference one
    # bit away from d * d.  Both layers take d * d, added left to right, so
    # the metric does not depend on the interpreter's ``**`` or ``sum``.
    p, q = Quaternion(0.438, 0), Quaternion(0, 0)
    d = [a - b for a, b in zip(_s4_coords(p), _s4_coords(q))]
    assert d[0] ** 2 != d[0] * d[0]
    expected = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3] + d[4] * d[4])
    assert chordal_distance(p, q) == expected
    zero = Split(np.zeros(1), np.zeros(1))
    p_row, q_row = batch.Quaternion(Split(np.array([0.438]), np.zeros(1)), zero), batch.Quaternion(zero, zero)
    assert same_bits(batch.chordal_distance(p_row, q_row), [expected])


def test_quaternion_operations_match_the_scalar_class():
    (a, b), (c, d) = _complex_samples(seed=2), _complex_samples(seed=3)
    # Rows of q that are zero, have no finite inverse, have a |q|^2 that
    # underflows or overflows, and are small but have a normal |q|^2.
    for z in (c, d):
        z.real[:200] = z.imag[:200] = 0.0
        z.real[50:75] = 5e-324
        z.real[75:100] = 1e-160
        z.real[100:150] = 1e200
        z.real[150:200] = 3e-13
    p, q = batch.Quaternion(a, b), batch.Quaternion(c, d)
    ps = [Quaternion(z1, z2) for z1, z2 in zip(_pyc(a), _pyc(b))]
    qs = [Quaternion(z1, z2) for z1, z2 in zip(_pyc(c), _pyc(d))]

    def quat_rows(values):
        if isinstance(values, batch.Quaternion):
            return _parts(values.z1), _parts(values.z2)
        return _parts([v.z1 for v in values]), _parts([v.z2 for v in values])

    assert same_bits(quat_rows(p * q), quat_rows([x * y for x, y in zip(ps, qs)]))
    assert same_bits(quat_rows(p + q), quat_rows([x + y for x, y in zip(ps, qs)]))
    assert same_bits(quat_rows(p - q), quat_rows([x - y for x, y in zip(ps, qs)]))
    assert same_bits(quat_rows(a * q), quat_rows([w * y for w, y in zip(_pyc(a), qs)]))
    # The inverse is the scalar one where the scalar code divides by |q|^2,
    # and NaN (a mark for the scalar code) on every row where it raises or
    # rescales q; so is the chordal distance to a point whose |q|^2 overflows.
    overflows = np.array([y.norm_sq() == math.inf for y in qs])
    invertible = np.array([y.norm_sq() >= 2.0**-1022 for y in qs]) & ~overflows
    assert invertible.sum() == len(qs) - 150 and overflows.sum() == 50
    assert invertible[150:200].all()
    with np.errstate(all="ignore"):
        inv = quat_rows(q.inverse())
        distance = batch.chordal_distance(p, q)
    ref = quat_rows([y.inverse() for y, ok in zip(qs, invertible) if ok])
    assert same_bits([[part[invertible] for part in z] for z in inv], ref)
    assert np.isnan(np.concatenate([part[~invertible] for z in inv for part in z])).all()
    ref = [chordal_distance(x, y) for x, y, big in zip(ps, qs, overflows) if not big]
    assert same_bits(distance[~overflows], ref) and np.isnan(distance[overflows]).all()
    assert same_bits(abs(p), [abs(x) for x in ps])


class _Factors:
    """A stand-in local unitary: ``apply_cb`` reads nothing of it but its factors."""

    def __init__(self, first, second):
        (self.a1, self.b1), (self.a2, self.b2) = first, second


def test_block_local_unitary_stores_the_scalar_factors():
    # Each evaluator reads the same four fields on both layers.
    theta, a, b = sampling.local_unitary_params(sampling.uniforms(5, 0, 0, 300))
    for variant in Variant:
        block = batch.LocalUnitary(variant, batch.SO2Element(theta), batch.SU2Element(batch.split(a), batch.split(b)))
        scalars = [
            LocalUnitary(variant, SO2Element(t), SU2Element(x, y))
            for t, x, y in zip(theta.tolist(), a.tolist(), b.tolist())
        ]
        for name in ("a1", "b1", "a2", "b2"):
            got = [np.broadcast_to(part, theta.shape) for part in _parts(getattr(block, name))]
            assert same_bits(got, _parts([getattr(u, name) for u in scalars])), (variant, name)


def test_local_actions_match_the_scalar_code():
    # Factors and amplitudes with exact zeros and wide scales, so signed
    # zeros and every rounding of the fixed order must agree.  The block
    # runs the library's own functions.
    a, b, c, d, alpha, beta, gamma, delta = (z for seed in range(4, 8) for z in _complex_samples(seed=seed))
    py = [_pyc(z) for z in (a, b, c, d, alpha, beta, gamma, delta)]

    got = _su2_action(a, b, alpha, beta)
    want = [_su2_action(*z) for z in zip(py[0], py[1], py[4], py[5])]
    assert same_bits([_parts(g) for g in got], [_parts([w[k] for w in want]) for k in range(2)])

    psi = batch.TwoQubitState(alpha, beta, gamma, delta)
    states = [TwoQubitState(*row) for row in zip(*py[4:])]
    got = apply_cb(_Factors((a, b), (c, d)), psi)
    want = [apply_cb(_Factors((fa, fb), (sa, sb)), s) for fa, fb, sa, sb, s in zip(*py[:4], states)]
    assert isinstance(got, batch.TwoQubitState)
    assert same_bits([_parts(z) for z in got], [_parts([w.amplitudes[j] for w in want]) for j in range(4)])

    assert same_bits(_parts(wootters_preconcurrence(psi)), _parts([wootters_preconcurrence(s) for s in states]))


# ---------------------------------------------------------------------------
# Float text against repr
# ---------------------------------------------------------------------------


def _reprs_taken(monkeypatch) -> list:
    """The values that batch.csv_rows hands to ``repr`` from now on, in order."""
    taken = []

    def counting_repr(v):
        taken.append(v)
        return repr(v)

    monkeypatch.setattr(batch, "repr", counting_repr, raising=False)
    return taken


def _column_text(values: np.ndarray) -> list[str]:
    """The float cells of ``batch.csv_rows`` over one column, each line checked for its step number."""
    lines = batch.csv_rows(7, [values]).decode("ascii").split("\r\n")
    assert lines.pop() == ""
    steps, cells = zip(*(line.split(",") for line in lines)) if lines else ((), ())
    assert list(steps) == [str(k) for k in range(7, 7 + len(values))]
    return list(cells)


def test_reprs_match_repr_on_a_catalogue(monkeypatch):
    rng = np.random.default_rng(21)
    # k-digit decimals from 0.1 down to 1e-21, so across 1e-4 into exponent
    # form, and dyadic values with few bits: those are exact 17-digit
    # decimals, where two nearest 16-digit ones can tie.
    decimals = [
        float(f"{m}e-{k + z}") for k in range(1, 17) for z in range(5) for m in rng.integers(10 ** (k - 1), 10**k, 40).tolist()
    ]
    dyadic = [m * 2.0**-n for n in range(14, 22) for m in rng.integers(1, 2**n, 40).tolist()]
    values = np.array(decimals + dyadic)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
    edges = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
    special = [0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0 - 2.0**-53, math.inf, math.nan]
    values = np.concatenate([values, 2.0 ** -np.arange(15), edges, np.nextafter(edges, 0.0), special])
    values = np.concatenate([values, -values])
    taken = _reprs_taken(monkeypatch)
    assert _column_text(values) == list(map(repr, values.tolist()))
    assert 0 < len(taken) < len(values) / 2


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
def test_reprs_match_repr_on_any_floats_in_range(values):
    assert _column_text(np.array(values)) == list(map(repr, values))


def test_reprs_match_repr_on_random_bit_patterns(monkeypatch):
    # Uniform bit patterns in [2**-15, 1), with either sign: about one in
    # nine is below 1e-4.  Only those, and the powers of two, reach repr.
    rng = np.random.default_rng(2010)
    n = 200_000
    bits = rng.integers(*np.array([2.0**-15, 1.0]).view(np.int64), n)
    bits[:100] &= ~((1 << 52) - 1)  # powers of two
    values = bits.view(np.float64) * rng.choice([-1.0, 1.0], n)
    taken = _reprs_taken(monkeypatch)
    assert _column_text(values) == list(map(repr, values.tolist()))
    unproven = values[(np.abs(values) < 1e-4) | (bits & ((1 << 52) - 1) == 0)]
    assert taken == unproven.tolist()


def test_csv_rows_writes_columns_and_fixed_text_as_csv_writer():
    # Two columns and two fixed texts, across the step 99 999 999 -> 100 000 000.
    rng = np.random.default_rng(25)
    u, v = rng.uniform(-1.0, 1.0, (2, 40))
    v[::7] = [0.0, 1e-7, -0.5, 3.0, np.nan, -0.25]
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([10**8 - 20 + j, a, "x", "y", b, 7] for j, (a, b) in enumerate(zip(u.tolist(), v.tolist())))
    assert batch.csv_rows(10**8 - 20, [u, b"x,y", v, b"7"]) == expected.getvalue().encode("ascii")


# ---------------------------------------------------------------------------
# Processes: batch._forked deals the work
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("cpus", [1, 3, 5])
def test_forked_gives_process_k_the_items_k_p_apart(monkeypatch, cpus, n):
    monkeypatch.setattr(batch, "_available_cpus", lambda: cpus)
    items = [f"item {i}" for i in range(n)]
    replies = batch._forked(lambda share: (os.getpid(), share), items, "a test worker")
    p = min(cpus, n)
    assert [share for _, share in replies] == [items[k::p] for k in range(p)]
    pids = [pid for pid, _ in replies]
    assert pids[0] == os.getpid() and len(set(pids)) == p
    assert sorted(item for _, share in replies for item in share) == sorted(items)
    assert_no_child_left()


def test_in_turn_writes_the_blocks_in_order_each_from_its_process(monkeypatch, tmp_path):
    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    out = tmp_path / "blocks.txt"
    with open(out, "wb") as fh:
        batch._in_turn(fh, 7, lambda i: b"%d %d\n" % (i, os.getpid()), "a test worker")
    assert_no_child_left()
    lines = [tuple(map(int, line.split())) for line in out.read_bytes().splitlines()]
    assert [i for i, _ in lines] == list(range(7))
    pids = [pid for _, pid in lines]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert all(pids[i] == pids[i % 3] for i in range(7))


def test_in_turn_with_one_block_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked for one block")

    monkeypatch.setattr(batch, "_available_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    out = io.BytesIO()
    batch._in_turn(out, 1, lambda i: b"block %d\n" % i, "a test worker")
    assert out.getvalue() == b"block 0\n"
