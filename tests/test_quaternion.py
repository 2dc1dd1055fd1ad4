"""Quaternion algebra: unit table, conjugation, norms, inverses, extended line."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_chordal_distance_examples():
    zero = Quaternion(0j, 0j)
    assert chordal_distance(INFINITY, INFINITY) == 0.0
    assert chordal_distance(zero, INFINITY) == 2.0
    q = Quaternion.from_reals(0.2, -0.4, 1.1, 0.0)
    assert chordal_distance(q, q) == 0.0


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
