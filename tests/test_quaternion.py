"""Quaternion algebra: unit table, conjugation, norms, inverses, extended line."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgeo import local_unitary, moebius, quaternion
from qgeo.conformal import conformal_map
from qgeo.local_unitary import QuatMat2, Variant, random_local_unitary
from qgeo.moebius import MoebiusQ, apply_moebius_q, moebius_from_local_unitary
from qgeo.quaternion import (
    I,
    INFINITY,
    J,
    K,
    ONE,
    Quaternion,
    DegenerateMapError,
    chordal_distance,
    ext_isclose,
    left_quotient,
    right_quotient,
)
from qgeo.states import Quaterbit

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
quaternions = st.builds(Quaternion.from_reals, components, components, components, components)


def test_from_reals_basis_elements():
    assert Quaternion.from_reals(1, 0, 0, 0) == ONE
    assert Quaternion.from_reals(0, 0, 1, 0) == J
    q = Quaternion.from_reals(1, 2, 3, 4)
    assert q.z1 == 1 + 2j
    assert q.z2 == 3 + 4j
    assert q.as_reals() == (1.0, 2.0, 3.0, 4.0)


def test_rejects_non_finite_components():
    with pytest.raises(ValueError):
        Quaternion(complex(float("nan"), 0), 0j)
    with pytest.raises(ValueError):
        Quaternion(0j, complex(0, float("inf")))
    with pytest.raises(ValueError):
        Quaternion.from_reals(0, 0, float("inf"), 0)
    # The value-type contract of the hand-written __init__.
    q = Quaternion(1, 2.5)
    assert type(q.z1) is complex and type(q.z2) is complex
    assert (q.z1, q.z2) == (1 + 0j, 2.5 + 0j)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.z1 = 0j
    assert not hasattr(q, "__dict__")
    assert q == Quaternion(1 + 0j, 2.5 + 0j) and hash(q) == hash(Quaternion(1 + 0j, 2.5 + 0j))
    assert pickle.loads(pickle.dumps(q)) == q
    assert dataclasses.replace(q, z2=-1) == Quaternion(1, -1)
    assert repr(q) == "Quaternion(z1=(1+0j), z2=(2.5+0j))"


# A finite result that overflows: each operation raises the public
# constructor's error, which names the components.  A compound operation
# (the quotients and the Moebius action) raises the error of the first
# operator of its composed expression that overflows, also where the next
# one would name other components.
_BIG = Quaternion(1e308, 0)
_TENTH = Quaternion(0.1, 0)
_SCALE = MoebiusQ(QuatMat2(Quaternion(10, 0), J, Quaternion(0, 0), ONE))
_SHIFT = MoebiusQ(QuatMat2(ONE, _BIG, Quaternion(0, 0), ONE))
_SCALE_DEN = MoebiusQ(QuatMat2(ONE, Quaternion(0, 0), Quaternion(10, 0), ONE))
_SHIFT_DEN = MoebiusQ(QuatMat2(ONE, Quaternion(0, 0), ONE, _BIG))
_SHRINK_DEN = MoebiusQ(QuatMat2(ONE, Quaternion(0, 0), Quaternion(0, 0), _TENTH))


def _composed_moebius(x, m):
    """The canonical action at x in the operators that ``Quaternion._moebius`` composes."""
    return (x * m.m11 + m.m12) * (x * m.m21 + m.m22).inverse()


_OVERFLOWS = {
    "mul": (lambda: _BIG * Quaternion(10, 0), None),
    "add": (lambda: _BIG + _BIG, None),
    "sub": (lambda: _BIG - (-_BIG), None),
    "rmul": (lambda: 10 * _BIG, None),
    "rmul_complex": (lambda: 10j * _BIG, None),
    "right_quotient": (lambda: right_quotient(_BIG, _TENTH), lambda: _BIG * _TENTH.inverse()),
    "left_quotient": (lambda: left_quotient(_BIG, _TENTH), lambda: _TENTH.inverse() * _BIG),
    "moebius_product": (lambda: apply_moebius_q(_SCALE, _BIG), lambda: _BIG * _SCALE.m.m11 + J),
    "moebius_sum": (lambda: apply_moebius_q(_SHIFT, _BIG), lambda: _BIG * ONE + _BIG),
    **{
        f"_moebius_{name}": (
            lambda f=f: _BIG._moebius(f.m),
            lambda f=f: _composed_moebius(_BIG, f.m),
        )
        for name, f in [
            ("numerator_product", _SCALE),
            ("numerator_sum", _SHIFT),
            ("denominator_product", _SCALE_DEN),
            ("denominator_sum", _SHIFT_DEN),
            ("quotient", _SHRINK_DEN),
        ]
    },
}


@pytest.mark.parametrize("op", list(_OVERFLOWS))
def test_overflowing_operations_raise_the_constructors_error(op):
    operation, composed = _OVERFLOWS[op]
    with pytest.raises(ValueError) as got:
        operation()
    z1 = complex(0, float("inf")) if op == "rmul_complex" else complex(float("inf"), 0)
    with pytest.raises(ValueError) as ref:
        Quaternion(z1, 0j)
    assert str(got.value) == str(ref.value)
    assert str(ref.value) == f"quaternion components must be finite, got ({z1!r}, 0j)"
    if composed is not None:
        with pytest.raises(ValueError) as written:
            composed()
        assert str(got.value) == str(written.value)


def test_inverse_cannot_overflow():
    # |z|^2 <= n and n >= ZERO_NORM_SQ bound each component of conj(q) / n by
    # n ** -0.5 <= 1e12, and a norm that overflows to inf gives zeros, so
    # inverse has no overflow to raise on.
    for q in (_BIG, Quaternion(1e308 + 1e308j, -1e308 - 1e308j), Quaternion(1e-12, 0)):
        inv = q.inverse()
        assert all(map(math.isfinite, inv.as_reals()))
    assert _BIG.inverse() == Quaternion(0, 0)
    assert Quaternion(1e-12, 0).inverse() == Quaternion(1e12, 0)


def test_operations_return_plain_quaternions():
    # The operations build their results without __init__; the results are
    # the same values, types and hashes as the public constructor's.
    p, q = Quaternion(1 + 2j, 3 - 4j), Quaternion(-0.5j, 2)
    results = [p + q, p - q, -p, p * q, p * 2, 2 * p, 1j * p, p.conjugate(), p.inverse()]
    for r in results:
        assert type(r) is Quaternion and type(r.z1) is complex and type(r.z2) is complex
        assert r == Quaternion(r.z1, r.z2) and hash(r) == hash(Quaternion(r.z1, r.z2))
        assert not hasattr(r, "__dict__")
        assert pickle.loads(pickle.dumps(r)) == r


def test_unit_multiplication_table():
    minus_one = -ONE
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J
    assert I * J * K == minus_one


def test_j_commutation_is_exact():
    for z in (3 + 4j, -0.25 + 7j, 1j, 2.5 + 0j):
        assert J * Quaternion(z, 0j) == Quaternion(z.conjugate(), 0j) * J


def test_identity_element():
    q = Quaternion.from_reals(1, 2, 3, 4)
    assert ONE * q == q
    assert q * ONE == q


def test_scalar_sides_differ():
    q = Quaternion.from_reals(0, 0, 1, 0)
    left = 1j * q
    right = q * 1j
    assert left == K
    assert right == -K
    assert left != right


def test_conjugate_read_off():
    q = Quaternion.from_reals(1, 2, 3, 4)
    assert q.conjugate() == Quaternion.from_reals(1, -2, -3, -4)
    r = Quaternion.from_reals(2.5, 0, 0, 0)
    assert r.conjugate() == r


def test_norm_examples():
    assert J.norm_sq() == 1.0
    assert Quaternion.from_reals(1, 2, 3, 4).norm_sq() == 30.0


def test_inverse_examples():
    assert J.inverse() == -J
    inv = Quaternion(1 + 1j, 0j).inverse()
    assert inv.isclose(Quaternion(0.5 - 0.5j, 0j), tol=1e-15)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0j, 0j).inverse()
    with pytest.raises(ZeroDivisionError):
        Quaternion(1e-13 + 0j, 0j).inverse()


def test_non_commutativity_witness():
    assert I * J != J * I


@given(quaternions, quaternions, quaternions)
def test_associativity(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) / scale <= 1e-12


@given(quaternions, quaternions)
def test_norm_multiplicativity(p, q):
    pq = abs(p * q)
    qp = abs(q * p)
    prod = abs(p) * abs(q)
    scale = max(prod, 1e-30)
    assert abs(pq - prod) / scale <= 1e-12
    assert abs(qp - prod) / scale <= 1e-12


@given(quaternions, quaternions)
def test_conjugation_antiautomorphism(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(quaternions)
def test_conjugation_is_involution(q):
    assert q.conjugate().conjugate() == q


@given(quaternions)
def test_inverse_law(q):
    assume(q.norm_sq() > 1e-6)
    assert abs(q * q.inverse() - ONE) <= 1e-12
    assert abs(q.inverse() * q - ONE) <= 1e-12


@given(quaternions)
@settings(max_examples=50)
def test_unit_quaternion_inverse_is_conjugate(q):
    assume(q.norm_sq() > 1e-6)
    u = (1.0 / abs(q)) * q
    assert u.inverse().isclose(u.conjugate(), tol=1e-12)


def test_right_quotient_conventions():
    assert right_quotient(ONE, J) == -J
    assert right_quotient(J, Quaternion(0j, 0j)) is INFINITY
    q = Quaternion.from_reals(0.3, -1, 2, 0.7)
    assert right_quotient(q, ONE) == q
    with pytest.raises(ZeroDivisionError):
        right_quotient(Quaternion(0j, 0j), Quaternion(0j, 0j))
    # The left quotient J**-1 * I differs from the right one I * J**-1.
    assert left_quotient(I, J) == K and right_quotient(I, J) == -K
    assert left_quotient(J, Quaternion(0j, 0j)) is INFINITY
    with pytest.raises(DegenerateMapError):
        left_quotient(Quaternion(0j, 0j), Quaternion(0j, 0j))


@pytest.mark.parametrize("quotient", [right_quotient, left_quotient])
def test_finite_quotient_computes_the_denominator_norm_once(quotient, monkeypatch):
    calls = []
    norm_sq = Quaternion.norm_sq
    monkeypatch.setattr(Quaternion, "norm_sq", lambda q: calls.append(q) or norm_sq(q))
    p, q = Quaternion.from_reals(0.3, -1, 2, 0.7), Quaternion.from_reals(1, 0.5, -0.2, 0.1)
    quotient(p, q)
    assert calls == [q]


def test_compound_operations_build_only_their_result(monkeypatch):
    built = []
    build = quaternion._quaternion
    for module in (quaternion, local_unitary):
        monkeypatch.setattr(module, "_quaternion", lambda z1, z2: built.append(z1) or build(z1, z2))
    determinants = []
    study = moebius.study_determinant
    monkeypatch.setattr(moebius, "study_determinant", lambda m: determinants.append(m) or study(m))
    p, q = Quaternion.from_reals(0.3, -1, 2, 0.7), Quaternion.from_reals(1, 0.5, -0.2, 0.1)
    f = MoebiusQ(QuatMat2(p, q, q.conjugate(), ONE))
    u = random_local_unitary(Variant.SO2_X_SU2, 5)
    for operation, count in [
        (lambda: right_quotient(p, q), 1),
        (lambda: left_quotient(p, q), 1),
        (lambda: conformal_map(Quaterbit(p, q)), 1),
        (lambda: apply_moebius_q(f, p), 1),
        # The four entries of its matrix, and no general determinant pass.
        (lambda: moebius_from_local_unitary(u), 4),
    ]:
        built.clear()
        determinants.clear()
        operation()
        assert len(built) == count
        assert determinants == []


def test_chordal_distance_examples():
    zero = Quaternion(0j, 0j)
    assert chordal_distance(INFINITY, INFINITY) == 0.0
    assert chordal_distance(zero, INFINITY) == 2.0
    q = Quaternion.from_reals(0.2, -0.4, 1.1, 0.0)
    assert chordal_distance(q, q) == 0.0
    # |q|^2 overflows above |q| of about 1.34e154: the image is still the
    # point 2 x / |q|^2 next to the north pole, not NaN.
    assert chordal_distance(INFINITY, Quaternion(1e200, 0)) == pytest.approx(2e-200, rel=1e-15)
    assert chordal_distance(Quaternion(0, -1e300j), Quaternion(1e300j, 0)) == pytest.approx(2e-300 * 2**0.5)
    assert 0.0 < chordal_distance(Quaternion(1.3e154, 0), Quaternion(1.4e154, 0)) < 1e-154


@given(quaternions, quaternions)
def test_chordal_distance_symmetric_bounded(p, q):
    d = chordal_distance(p, q)
    assert d == chordal_distance(q, p)
    assert 0.0 <= d <= 2.0 + 1e-15
    assert chordal_distance(p, INFINITY) <= 2.0 + 1e-15


def test_ext_isclose_uses_sphere_metric():
    big = Quaternion(1e9 + 0j, 0j)
    assert ext_isclose(big, INFINITY, tol=1e-8)
    assert not ext_isclose(Quaternion(0j, 0j), INFINITY, tol=1e-8)


def test_infinity_is_a_singleton():
    from qgeo.quaternion import AtInfinity

    assert AtInfinity() is INFINITY
    assert (INFINITY == INFINITY) is True
