"""Moebius actions: conventions at infinity, variant orderings, composition law."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qgeo.quaternion import I, INFINITY, J, K, ONE, Quaternion, chordal_distance, left_quotient, right_quotient
from qgeo.states import OneQubitState, Quaterbit, TwoQubitState, haar_random_state, quaternionify
from qgeo.conformal import (
    conformal_map,
    conformal_map_dual,
    conformal_map_one_qubit,
    embed_complex,
    inverse_stereographic,
)
from qgeo.local_unitary import (
    LocalUnitary,
    QuatMat2,
    SO2Element,
    SU2Element,
    Variant,
    complexify,
    quat_matrix,
    random_local_unitary,
    random_su2,
)
from qgeo.moebius import (
    DET_TOL,
    ORBIT_CHUNK,
    DegenerateMapError,
    MoebiusQ,
    VariantOrder,
    apply_moebius_q,
    apply_moebius_q_variant,
    compose,
    moebius_from_local_unitary,
    orbit_angles,
    orbit_s4,
    study_determinant,
)

ZERO = Quaternion(0j, 0j)


def _q(x0, x1, x2, x3):
    return Quaternion.from_reals(x0, x1, x2, x3)


def _random_quaternion(rng):
    return Quaternion.from_reals(*rng.uniform(-1, 1, size=4))


def _random_moebius(rng) -> MoebiusQ:
    while True:
        try:
            return MoebiusQ(QuatMat2(*(_random_quaternion(rng) for _ in range(4))))
        except ValueError:
            continue


# Complex Moebius maps (Lee et al.'s one-qubit maps) are the quaternionic
# action restricted to the complex line: complex entries, complex points.


def _complex_matrix(a, b, c, d) -> QuatMat2:
    return QuatMat2(*map(embed_complex, (a, b, c, d)))


def _complex_moebius(a, b, c, d) -> MoebiusQ:
    return MoebiusQ(_complex_matrix(a, b, c, d))


def _apply_c(f: MoebiusQ, z):
    """The left-coefficient ordering, which the one-qubit check uses."""
    return apply_moebius_q_variant(f, z, VariantOrder.LEFT_COEFFICIENTS)


def test_moebius_c_rejects_degenerate():
    with pytest.raises(ValueError):
        _complex_moebius(1, 1, 1, 1)


def test_moebius_c_conventions():
    ident = _complex_moebius(1, 0, 0, 1)
    for z in (ZERO, embed_complex(2 + 1j), INFINITY):
        assert _apply_c(ident, z) == z

    inv = _complex_moebius(0, 1, 1, 0)
    assert abs(_apply_c(inv, embed_complex(2)) - embed_complex(0.5)) <= 1e-15
    assert _apply_c(inv, ZERO) is INFINITY
    assert _apply_c(inv, INFINITY) == ZERO

    f = _complex_moebius(2, 1, 1 + 1j, 3)
    assert abs(_apply_c(f, INFINITY) - embed_complex(2 / (1 + 1j))) <= 1e-15
    translation = _complex_moebius(1, 5, 0, 1)
    assert _apply_c(translation, INFINITY) is INFINITY


def test_moebius_q_identity():
    ident = MoebiusQ(QuatMat2.identity())
    q = _q(0.3, -1, 0.5, 2)
    assert apply_moebius_q(ident, q) == q
    assert apply_moebius_q(ident, INFINITY) is INFINITY


def test_moebius_q_rejects_non_invertible():
    for singular in ((ONE, ONE, ONE, ONE), (ZERO, ZERO, ZERO, ZERO), (I, J, I, J)):
        assert study_determinant(QuatMat2(*singular)) == 0.0
        with pytest.raises(ValueError, match="Study determinant"):
            MoebiusQ(QuatMat2(*singular))
    # diag(1, t) has determinant t**2: the threshold DET_TOL = 1e-18 is pinned from both sides.
    assert DET_TOL == 1e-18
    MoebiusQ(QuatMat2(ONE, ZERO, ZERO, math.sqrt(1.01e-18) * ONE))
    with pytest.raises(ValueError, match="Study determinant"):
        MoebiusQ(QuatMat2(ONE, ZERO, ZERO, math.sqrt(0.99e-18) * ONE))


def test_moebius_q_raises_the_operators_error_where_the_determinant_overflows():
    # s * identity: the determinant s**4 overflows to inf at s = 1e100; from
    # s = 1e155 on, |s|**2 overflows, and so does the operator product |s|**2 * s.
    for s in (1e155, 1e200):
        m = QuatMat2(s * ONE, ZERO, ZERO, s * ONE)
        with pytest.raises(ValueError, match="quaternion components must be finite"):
            study_determinant(m)
        with pytest.raises(ValueError, match="quaternion components must be finite"):
            MoebiusQ(m)
    f = MoebiusQ(QuatMat2(1e100 * ONE, ZERO, ZERO, 1e100 * ONE))
    assert study_determinant(f.m) == math.inf
    assert apply_moebius_q(f, J) == J


def _scale(m: QuatMat2) -> float:
    a, b, c, d = (x.norm_sq() for x in m.entries())
    return a * d + b * c


def test_study_determinant_is_the_complexified_determinant():
    """numpy's det(complexify(m)) for entry scales 1e-6 to 1e6, and 1 on the local unitaries."""
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=4)
        m = QuatMat2(*(Quaternion.from_reals(*(s * rng.standard_normal(4))) for s in scales))
        reference = np.linalg.det(complexify(m)).real
        assert abs(study_determinant(m) - reference) <= 1e-13 * _scale(m)
    for seed in range(200):
        for f in (
            moebius_from_local_unitary(random_local_unitary(Variant.SO2_X_SU2, seed)),
            MoebiusQ.from_su2(random_su2(seed)),
        ):
            reference = np.linalg.det(complexify(f.m)).real
            assert abs(study_determinant(f.m) - reference) <= 1e-13 * _scale(f.m)
            assert abs(study_determinant(f.m) - 1.0) <= 1e-13
    # moebius_from_local_unitary builds its map unchecked: the determinant is
    # 1 on every transform, rotations at and next to the quarter turns included.
    rotations = [k * math.pi / 2 + offset for k in range(4) for offset in (0.0, -1e-9, 1e-9)]
    transforms = [random_local_unitary(variant, seed) for seed in range(200) for variant in Variant]
    transforms += [
        LocalUnitary(variant, SO2Element(theta), su2)
        for seed, theta in enumerate(rotations)
        for su2 in (random_su2(seed), SU2Element(-0.6 + 0.8j, 0), SU2Element(0, 0.8 - 0.6j))
        for variant in Variant
    ]
    assert len(transforms) == 472
    for u in transforms:
        assert abs(study_determinant(quat_matrix(u)) - 1) <= 1e-13


def test_local_unitary_maps_are_invertible_at_the_normalization_tolerance():
    # |a|^2 + |b|^2 = 1 +- 0.9e-9, inside NORMALIZATION_TOL = 1e-9: the Study
    # determinant ((|a|^2 + |b|^2) (cos^2 + sin^2))^2 stays within 2e-9 of 1.
    for excess in (-0.9e-9, 0.9e-9):
        s = math.sqrt(1.0 + excess)
        su2 = SU2Element(s * (0.6 + 0.48j), s * 0.64j)
        assert abs(abs(su2.a) ** 2 + abs(su2.b) ** 2 - 1.0 - excess) <= 1e-15
        for theta in (0.0, 0.7, math.pi / 2 + 1e-9, 3.0):
            f = moebius_from_local_unitary(LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), su2))
            assert abs(study_determinant(f.m) - 1.0) <= 4e-9


def test_numerically_singular_matrices_are_rejected():
    """Rows (a, b) and lam*(a, b) of unit-scale random quaternions: singular up to rounding.

    Both numpy's LU determinant and study_determinant decide these matrices on
    rounding noise, of order (1e-16)**2 and so far below DET_TOL: both reject
    every one.  A verdict turns on rounding only where the exact determinant is
    within rounding of DET_TOL itself; no test pins a matrix there.
    """
    rng = np.random.default_rng(7)
    matrices = []
    for _ in range(2000):
        a, b, lam = (_random_quaternion(rng) for _ in range(3))
        matrices.append(QuatMat2(a, b, lam * a, lam * b))
    # Exactly singular: the second row is the first times a power of two.
    for _ in range(50):
        a, b = _random_quaternion(rng), _random_quaternion(rng)
        matrices += [QuatMat2(a, b, 2.0**k * a, 2.0**k * b) for k in range(-3, 4)]
    for m in matrices:
        assert abs(np.linalg.det(complexify(m))) < DET_TOL
        with pytest.raises(ValueError):
            MoebiusQ(m)


def test_moebius_q_needs_no_numpy_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    f = moebius_from_local_unitary(random_local_unitary(Variant.SO2_X_SU2, 3))
    g = MoebiusQ.from_su2(random_su2(4))
    h = compose(f, f)
    q = _q(0.3, -1, 0.5, 2)
    twice = apply_moebius_q(f, apply_moebius_q(f, q))
    assert chordal_distance(apply_moebius_q(h, q), twice) <= 1e-12
    assert g.m.m11 == embed_complex(random_su2(4).a)
    with pytest.raises(ValueError):
        MoebiusQ(QuatMat2(ONE, ONE, ONE, ONE))


def test_moebius_q_inversion_matrix():
    swap = MoebiusQ(QuatMat2(ZERO, ONE, ONE, ZERO))
    q = _q(0.5, 1, -2, 0.25)
    assert abs(apply_moebius_q(swap, q) - q.inverse()) <= 1e-14
    assert apply_moebius_q(swap, ZERO) is INFINITY
    assert apply_moebius_q(swap, INFINITY) == ZERO


def test_moebius_q_infinity_conventions():
    theta = 0.8
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), SU2Element(1, 0))
    f = moebius_from_local_unitary(u)
    value = apply_moebius_q(f, INFINITY)
    expected = Quaternion(complex(-math.cos(theta) / math.sin(theta)), 0j)
    assert abs(value - expected) <= 1e-12

    # The preimage of infinity is -m22 * m21^-1.
    pole = -f.m.m22 * f.m.m21.inverse()
    assert apply_moebius_q(f, pole) is INFINITY


def test_variants_coincide_on_real_matrices():
    rng = np.random.default_rng(1)
    m = QuatMat2(*(Quaternion(complex(rng.uniform(-1, 1)), 0j) for _ in range(4)))
    f = MoebiusQ(m)
    for seed in range(50):
        q = _random_quaternion(np.random.default_rng(seed))
        base = apply_moebius_q(f, q)
        for which in VariantOrder:
            alt = apply_moebius_q_variant(f, q, which)
            assert chordal_distance(base, alt) <= 1e-13


def test_variants_differ_pairwise_on_generic_matrix():
    m = QuatMat2(J, ONE, K, ONE + I)
    f = MoebiusQ(m)
    values = [
        apply_moebius_q(f, I),
        apply_moebius_q_variant(f, I, VariantOrder.LEFT_DENOMINATOR),
        apply_moebius_q_variant(f, I, VariantOrder.LEFT_COEFFICIENTS),
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert chordal_distance(values[i], values[j]) > 0.01


def test_variant_identity_matrix_acts_trivially():
    ident = MoebiusQ(QuatMat2.identity())
    q = _q(1, -0.5, 0.25, 2)
    for which in VariantOrder:
        assert apply_moebius_q_variant(ident, q, which) == q
        assert apply_moebius_q_variant(ident, INFINITY, which) is INFINITY


def test_compose_returns_a_map_for_every_pair_of_maps():
    # det diag(1, 1e-5) = 1e-10 passes DET_TOL; the composite's 1e-20 would not.
    f = MoebiusQ(QuatMat2(ONE, ZERO, ZERO, 1e-5 * ONE))
    h = compose(f, f)
    for q in (_q(0.3, -1, 0.5, 2), _q(1e-11, 0, 2e-11, 0), J):
        assert chordal_distance(apply_moebius_q(h, q), apply_moebius_q(f, apply_moebius_q(f, q))) <= 1e-15


def test_compose_with_identity():
    rng = np.random.default_rng(3)
    g = _random_moebius(rng)
    gi = compose(MoebiusQ(QuatMat2.identity()), g)
    assert all(x == y for x, y in zip(gi.m.entries(), g.m.entries()))


def test_rotation_angles_add_under_composition():
    def rotation_map(theta):
        u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), SU2Element(1, 0))
        return moebius_from_local_unitary(u)

    f = compose(rotation_map(0.4), rotation_map(0.9))
    g = rotation_map(1.3)
    for seed in range(50):
        q = _random_quaternion(np.random.default_rng(seed))
        assert chordal_distance(apply_moebius_q(f, q), apply_moebius_q(g, q)) <= 1e-12


def _random_induced_map(seed, idx=0) -> MoebiusQ:
    return moebius_from_local_unitary(random_local_unitary(Variant.SO2_X_SU2, seed, idx))


def test_composition_functional_law_on_induced_maps():
    # The canonical action composes through the matrix product exactly on the
    # family it is built from: real rotation parts times a common right factor.
    rng = np.random.default_rng(12)
    for seed in range(300):
        f = _random_induced_map(seed, 0)
        g = _random_induced_map(seed, 1)
        q = _random_quaternion(rng)
        lhs = apply_moebius_q(compose(f, g), q)
        rhs = apply_moebius_q(f, apply_moebius_q(g, q))
        assert chordal_distance(lhs, rhs) <= 1e-10


def test_composition_through_poles():
    for seed in range(100):
        f = _random_induced_map(seed, 2)
        g = _random_induced_map(seed, 3)
        # The pole of g is sent to infinity, so the composite must land on
        # f's value at infinity.  The pole is rounded: g's denominator there
        # is a rounding residue, which has an inverse, so g's image is a
        # point within rounding of INFINITY rather than INFINITY itself.
        pole = -g.m.m22 * g.m.m21.inverse()
        assert chordal_distance(apply_moebius_q(g, pole), INFINITY) <= 1e-15
        lhs = apply_moebius_q(compose(f, g), pole)
        rhs = apply_moebius_q(f, INFINITY)
        assert chordal_distance(lhs, rhs) <= 1e-10


def test_composition_law_fails_for_generic_quaternion_matrices():
    # Right-coefficient fractional-linear maps do not compose through any
    # matrix product once the entries stop commuting: q -> q*i followed by
    # q -> q*j is q -> q*(ij), while the matrix product predicts q*(ji).
    f = MoebiusQ(QuatMat2(J, ZERO, ZERO, ONE))
    g = MoebiusQ(QuatMat2(I, ZERO, ZERO, ONE))
    q = _q(0.3, 0.7, -0.2, 0.5)
    composite = apply_moebius_q(f, apply_moebius_q(g, q))
    assert abs(composite - q * K) <= 1e-14
    via_product = apply_moebius_q(compose(f, g), q)
    assert abs(via_product - q * (-K)) <= 1e-14
    assert chordal_distance(composite, via_product) > 0.01


def test_sign_quotient():
    rng = np.random.default_rng(31)
    for _ in range(100):
        f = _random_moebius(rng)
        neg = MoebiusQ(-f.m)
        q = _random_quaternion(rng)
        assert chordal_distance(apply_moebius_q(f, q), apply_moebius_q(neg, q)) <= 1e-11
        assert chordal_distance(
            apply_moebius_q(f, INFINITY), apply_moebius_q(neg, INFINITY)
        ) <= 1e-11


def test_right_common_factor_cancellation():
    rng = np.random.default_rng(44)
    for _ in range(100):
        f = _random_moebius(rng)
        s = _random_quaternion(rng)
        if s.norm_sq() < 1e-2:
            continue
        s = (1.0 / abs(s)) * s
        scaled = MoebiusQ(QuatMat2(*(e * s for e in f.m.entries())))
        q = _random_quaternion(rng)
        assert chordal_distance(apply_moebius_q(f, q), apply_moebius_q(scaled, q)) <= 1e-11
        assert chordal_distance(
            apply_moebius_q(f, INFINITY), apply_moebius_q(scaled, INFINITY)
        ) <= 1e-11


def test_complex_restriction_matches_complex_moebius():
    # The reference is (a z + b) / (c z + d) in Python complex arithmetic.
    rng = np.random.default_rng(55)
    for _ in range(100):
        a, b, c, d = (complex(*rng.uniform(-1, 1, size=2)) for _ in range(4))
        if abs(a * d - b * c) < 1e-3:
            continue
        fq = _complex_moebius(a, b, c, d)
        z = complex(*rng.uniform(-1, 1, size=2))
        expected = embed_complex((a * z + b) / (c * z + d))
        assert chordal_distance(apply_moebius_q(fq, embed_complex(z)), expected) <= 1e-12
        for which in VariantOrder:
            lhs = apply_moebius_q_variant(fq, embed_complex(z), which)
            assert chordal_distance(lhs, expected) <= 1e-12
        assert chordal_distance(_apply_c(fq, INFINITY), embed_complex(a / c)) <= 1e-12
        one_qubit = conformal_map_one_qubit(OneQubitState(a, c))
        assert chordal_distance(one_qubit, embed_complex(a / c)) <= 1e-12

    # The one-qubit check's map: the SU(2) matrix (a, b; -conj(b), conj(a)).
    for seed in range(100):
        u = random_local_unitary(Variant.SO2_X_SU2, seed).su2
        a, b, c, d = u.a, u.b, -u.b.conjugate(), u.a.conjugate()
        z = complex(*np.random.default_rng(seed + 100).uniform(-2, 2, size=2))
        expected = embed_complex((a * z + b) / (c * z + d))
        assert chordal_distance(_apply_c(MoebiusQ.from_su2(u), embed_complex(z)), expected) <= 1e-12


def test_moebius_from_local_unitary_requires_variant():
    with pytest.raises(ValueError):
        moebius_from_local_unitary(
            LocalUnitary(Variant.SU2_X_SO2, SO2Element(0.1), SU2Element(1, 0))
        )


def test_moebius_from_identity_transform():
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), SU2Element(1, 0))
    f = moebius_from_local_unitary(u)
    q = _q(0.2, 1, -1, 0.5)
    assert apply_moebius_q(f, q) == q


def test_theta_zero_gives_identity_map_for_any_su2():
    for seed in range(50):
        u0 = random_local_unitary(Variant.SO2_X_SU2, seed)
        u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.0), u0.su2)
        f = moebius_from_local_unitary(u)
        q = _random_quaternion(np.random.default_rng(seed + 1))
        assert chordal_distance(apply_moebius_q(f, q), q) <= 1e-12


def test_bell_point_is_fixed():
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(math.pi / 4), SU2Element(1, 0))
    f = moebius_from_local_unitary(u)
    assert chordal_distance(apply_moebius_q(f, -J), -J) <= 1e-14


def _unchecked(m: QuatMat2) -> MoebiusQ:
    """A MoebiusQ of m built without the DET_TOL check.  No map that passes it
    divides two quaternions that both lack a finite inverse (0/0)."""
    f = MoebiusQ.__new__(MoebiusQ)
    object.__setattr__(f, "m", m)
    return f


def test_degenerate_evaluation_raises():
    swap = MoebiusQ(QuatMat2(ZERO, ONE, ONE, ZERO))
    with pytest.raises(DegenerateMapError):
        # Force numerator and denominator to vanish together by feeding an
        # inconsistent hand-built matrix through the variant evaluator.
        apply_moebius_q(_unchecked(QuatMat2(ONE, ZERO, ONE, ZERO)), ZERO)
    # A legitimate map never triggers it.
    assert apply_moebius_q(swap, ZERO) is INFINITY


# ---------------------------------------------------------------------------
# One extended-line quotient behind every conformal map and Moebius ordering
# ---------------------------------------------------------------------------

_BIG = (Quaternion(1e6, 0), Quaternion(0, 1e6))


def _moebius_quotient(x, order):
    """The action of ``order`` (None: canonical) at x, ZERO or INFINITY, as a
    function of the two matrix entries it divides there."""

    def quotient(num, den):
        if x is INFINITY:
            f = _unchecked(QuatMat2(num, _BIG[0], den, _BIG[1]))
        else:
            f = _unchecked(QuatMat2(_BIG[0], num, _BIG[1], den))
        return apply_moebius_q(f, x) if order is None else apply_moebius_q_variant(f, x, order)

    return quotient


def _right(num, den):
    return num * den.inverse()


def _left(num, den):
    return den.inverse() * num


def _on_plane(path):
    """A path of the complex line, fed each quaternion x0 + x1 i + x2 j + x3 k
    as the complex number x0 + x2 i: J becomes i, and zero and tiny values stay so."""
    return lambda num, den: path(complex(num.z1.real, num.z2.real), complex(den.z1.real, den.z2.real))


_right_on_plane = _on_plane(lambda p, q: _right(embed_complex(p), embed_complex(q)))


_QUOTIENT_PATHS = [
    pytest.param(lambda num, den: conformal_map(Quaterbit(num, den)), _right, id="conformal_map"),
    pytest.param(
        _on_plane(lambda a1, a2: conformal_map_one_qubit(OneQubitState(a1, a2))),
        _right_on_plane,
        id="conformal_map_one_qubit",
    ),
    pytest.param(
        _on_plane(lambda b, d: _apply_c(_unchecked(_complex_matrix(1e6, b, 1e6j, d)), ZERO)),
        _right_on_plane,
        id="complex-at-zero",
    ),
    pytest.param(
        _on_plane(lambda a, c: _apply_c(_unchecked(_complex_matrix(a, 1e6, c, 1e6j)), INFINITY)),
        _right_on_plane,
        id="complex-at-infinity",
    ),
    pytest.param(
        lambda num, den: conformal_map_dual(Quaterbit(num, den)), _left, id="conformal_map_dual"
    ),
    *(
        pytest.param(
            _moebius_quotient(x, order),
            _left if order is VariantOrder.LEFT_DENOMINATOR else _right,
            id=f"{'canonical' if order is None else order.value}-at-{where}",
        )
        for x, where in ((ZERO, "zero"), (INFINITY, "infinity"))
        for order in (None, VariantOrder.LEFT_DENOMINATOR, VariantOrder.LEFT_COEFFICIENTS)
    ),
]


@pytest.mark.parametrize("quotient, formula", _QUOTIENT_PATHS)
def test_every_quotient_path_shares_the_extended_line_convention(quotient, formula):
    # A quotient is INFINITY exactly where its denominator has no finite
    # inverse: at 0, and at a nonzero quaternion below 1 / the largest float.
    tiny = Quaternion(5e-324, 0)
    assert quotient(ONE, ZERO) is INFINITY
    assert quotient(J, tiny) is INFINITY
    # Small denominators that have an inverse, also where |q|^2 underflows,
    # give the written formula's finite value.
    for small in (Quaternion(1e-13, 0), Quaternion(1e-160, 0), Quaternion(2e-308, 0)):
        assert quotient(J, small) == formula(J, small)
    # 0/0: the numerator has no finite inverse either.  At infinity the
    # matrix is (5e-324, 1e6; -5e-324, 1e6*j) (1e6*i on the complex plane).
    with pytest.raises(DegenerateMapError) as exc:
        quotient(tiny, -tiny)
    assert isinstance(exc.value, ZeroDivisionError)
    rng = np.random.default_rng(51)
    for _ in range(1000):
        num, den = _random_quaternion(rng), _random_quaternion(rng)
        assert quotient(num, den) == formula(num, den)


@pytest.mark.parametrize(
    "apply, at_point, at_infinity, composed",
    [
        pytest.param(
            apply_moebius_q,
            lambda x, m: (x * m.m11 + m.m12) * (x * m.m21 + m.m22).inverse(),
            lambda m: m.m11 * m.m21.inverse(),
            lambda x, m: right_quotient(x * m.m11 + m.m12, x * m.m21 + m.m22),
            id="canonical",
        ),
        pytest.param(
            lambda f, x: apply_moebius_q_variant(f, x, VariantOrder.LEFT_DENOMINATOR),
            lambda x, m: (x * m.m21 + m.m22).inverse() * (x * m.m11 + m.m12),
            lambda m: m.m21.inverse() * m.m11,
            lambda x, m: left_quotient(x * m.m11 + m.m12, x * m.m21 + m.m22),
            id="left_denominator",
        ),
        pytest.param(
            lambda f, x: apply_moebius_q_variant(f, x, VariantOrder.LEFT_COEFFICIENTS),
            lambda x, m: (m.m11 * x + m.m12) * (m.m21 * x + m.m22).inverse(),
            lambda m: m.m11 * m.m21.inverse(),
            lambda x, m: right_quotient(m.m11 * x + m.m12, m.m21 * x + m.m22),
            id="left_coefficients",
        ),
    ],
)
def test_moebius_orderings_equal_their_written_formulas(apply, at_point, at_infinity, composed):
    rng = np.random.default_rng(52)
    cases = [(_random_moebius(rng), _random_quaternion(rng)) for _ in range(1000)]
    # Denominators with |q|^2 one ulp below the least normal float 2**-1022
    # (where the inverse rescales q), at it and one ulp above, at 0 and at
    # INFINITY; then points of norm about 1e150.
    tiny = [Quaternion(math.nextafter(2**-511, 0), 0), Quaternion(2**-511, 0), Quaternion(2**-511 + 2**-537 * 1j, 0)]
    least = 2.0**-1022
    assert [t.norm_sq() for t in tiny] == [math.nextafter(least, 0), least, math.nextafter(least, 1)]
    for t in tiny:
        a, b, c = (_random_quaternion(rng) for _ in range(3))
        cases += [(MoebiusQ(QuatMat2(a, b, c, t)), ZERO), (MoebiusQ(QuatMat2(a, b, t, c)), ZERO)]
    cases += [(_random_moebius(rng), 1e150 * _random_quaternion(rng)) for _ in range(20)]
    for f, x in cases:
        assert apply(f, x) == _on_extended_line(at_point, x, f.m)
        assert apply(f, INFINITY) == _on_extended_line(at_infinity, f.m)
    # The whole outcome (a value, INFINITY or the error raised) is that of
    # the composed operators and the extended line's quotient, at points
    # other than 0: a denominator with no finite inverse, the three around
    # 2**-1022 (where the fused action meets the composed one), then 0/0
    # (entries 1e6 and 5e-324, see _unchecked).
    outcomes = []
    for t in [Quaternion(5e-324, 0), *tiny]:
        a, b = _random_quaternion(rng), _random_quaternion(rng)
        f = MoebiusQ(QuatMat2(a, b, ONE, ZERO))
        outcomes.append(_outcome(apply, composed, f, t))
    assert outcomes[0] is INFINITY
    assert all(type(p) is Quaternion and p.norm_sq() > 1e300 for p in outcomes[1:])
    degenerate = _unchecked(QuatMat2(_BIG[0], Quaternion(5e-324, 0), _BIG[1], Quaternion(-5e-324, 0)))
    for x in (ZERO, Quaternion(5e-324, 0), Quaternion(1e-320, -2e-320j)):
        assert _outcome(apply, composed, degenerate, x) is DegenerateMapError


def _on_extended_line(formula, *args):
    """A written formula's value, or INFINITY where the inverse in it raises."""
    try:
        return formula(*args)
    except ZeroDivisionError:
        return INFINITY


def _outcome(apply, composed, f, x):
    """apply(f, x), asserted equal to composed(x, f.m), or the type of the
    error that both raise with the same message."""
    try:
        want = composed(x, f.m)
    except ZeroDivisionError as exc:
        with pytest.raises(type(exc)) as got:
            apply(f, x)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return type(exc)
    assert apply(f, x) == want
    return want


# ---------------------------------------------------------------------------
# Closed-form orbits: iterate k is a rotation of the 4-sphere by 2*k*theta
# ---------------------------------------------------------------------------

_ORBIT_THETAS = [
    base + offset
    for base in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    for offset in (-1e-8, 0.0, 1e-8)
]

_ORBIT_STATES = {
    "haar0": haar_random_state(0),
    "haar1": haar_random_state(1),
    "haar2": haar_random_state(2),
    # q2 = 0: the conformal image is INFINITY.
    "infinity": TwoQubitState(0.6, 0.8j, 0j, 0j),
    # |q2|**2 = 1e-20: an image of norm about 1e10, next to infinity.
    "near_infinity": TwoQubitState(0.6, 0.8j, 1e-10, 0j),
}


@pytest.mark.parametrize("theta", _ORBIT_THETAS)
@pytest.mark.parametrize("state", sorted(_ORBIT_STATES))
def test_orbit_s4_matches_iterated_action(state, theta):
    su2 = random_local_unitary(Variant.SO2_X_SU2, seed=7).su2
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), su2)
    point = conformal_map(quaternionify(_ORBIT_STATES[state]))
    rows = orbit_s4(u, point, 0, 64)
    assert rows.shape == (64, 5)
    f = moebius_from_local_unitary(u)
    p = point
    for k in range(64):
        assert np.linalg.norm(rows[k] - inverse_stereographic(p)) <= 1e-13, k
        p = apply_moebius_q(f, p)


def test_orbit_s4_rows_do_not_depend_on_blocking():
    u = random_local_unitary(Variant.SO2_X_SU2, seed=5)
    point = conformal_map(quaternionify(haar_random_state(5)))
    whole = orbit_s4(u, point, 0, 2 * ORBIT_CHUNK + 3)
    for k0, n in [(0, 1), (1, 5), (ORBIT_CHUNK - 2, 4), (ORBIT_CHUNK + 1, ORBIT_CHUNK + 2)]:
        part = orbit_s4(u, point, k0, n)
        assert part.shape == (n, 5)
        assert np.max(np.abs(part - whole[k0:k0 + n])) <= 4e-15
        np.testing.assert_array_equal(part[:, 1:4], whole[k0:k0 + n, 1:4])
    assert orbit_s4(u, point, 3, 0).shape == (0, 5)
    for k0, n in [(-1, 3), (0, -1)]:
        with pytest.raises(ValueError, match="orbit steps must be non-negative"):
            orbit_s4(u, point, k0, n)
    np.testing.assert_array_equal(whole[0], inverse_stereographic(point))


def test_orbit_s4_requires_variant():
    u = random_local_unitary(Variant.SU2_X_SO2, seed=0)
    with pytest.raises(ValueError, match="so2xsu2"):
        orbit_s4(u, INFINITY, 0, 3)


def _decimal_pi() -> Decimal:
    """pi to the context precision (the series recipe of the decimal module docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


@pytest.mark.parametrize(
    "theta",
    [math.pi / 2, 2 * math.pi, 1e-300, 1e10, 1e30, -2.5]
    + list(np.random.default_rng(3).uniform(0.0, 2 * math.pi, size=4))
    + [0.0, -0.0, 5e-324, -5e-324, -math.pi / 2, 2.345678, -2.345678, 1e300, -1e300],
)
def test_orbit_angles_are_exact(theta):
    ks = [0, 1, 2, 3, 7, ORBIT_CHUNK - 1, ORBIT_CHUNK, 12345, 10**5, 2**31 + 11, 2**52 + 1, 2**53 - 1, 2**53]
    with localcontext() as ctx:
        ctx.prec = 400  # 2*k*theta keeps its fraction up to theta = 1e300, k = 2**53
        two_pi = 2 * _decimal_pi()
        for k, phi in zip(ks, orbit_angles(theta, ks)):
            x = 2 * k * Decimal(theta)
            ref = x - two_pi * (x / two_pi).to_integral_value(rounding="ROUND_FLOOR")
            gap = abs(Decimal(phi) - ref)
            assert min(gap, two_pi - gap) <= Decimal("8.9e-16"), (k, phi, ref)
    assert orbit_angles(theta, []) == []
    with pytest.raises(ValueError):
        orbit_angles(theta, [-1])


@pytest.mark.parametrize("theta", [t * sign for t in (0.0, 5e-324, math.pi / 2, 2.345678, 1e300) for sign in (1, -1)])
def test_orbit_offsets_are_orbit_angles_bit_for_bit(theta):
    # The first block of orbit_s4, its first ORBIT_CHUNK rows, starts at angle 0,
    # so its rows are the rotations by the in-block offsets alone: orbit_angles,
    # bit for bit.
    su2 = random_local_unitary(Variant.SO2_X_SU2, seed=7).su2
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), su2)
    point = conformal_map(quaternionify(haar_random_state(5)))
    u0, u1, u2, u3, u4 = inverse_stereographic(point).tolist()
    phi = np.array(orbit_angles(theta, range(ORBIT_CHUNK)))
    expected = np.empty((ORBIT_CHUNK, 5))
    expected[:, 0] = np.cos(phi) * u0 - np.sin(phi) * u4
    expected[:, 1:4] = (u1, u2, u3)
    expected[:, 4] = np.sin(phi) * u0 + np.cos(phi) * u4
    rows = orbit_s4(u, point, 0, ORBIT_CHUNK + 1)[:ORBIT_CHUNK]
    np.testing.assert_array_equal(rows.view(np.int64), expected.view(np.int64))
