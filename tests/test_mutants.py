"""A catalogue of defects and the detectors that kill them.

Each mutant is a monkeypatch of one or two functions of the library,
``batch`` or ``sampling``, and ``run_suite(513, 0)`` is the detector: a
mutant is killed when some check row of the report fails.  The forked
workers of the suite inherit the patched modules.  A defect that no row
kills yet is a strict xfail whose reason names the open ROADMAP item
expected to kill it; when that item lands, the xfail passes, fails as
strict, and the mutant moves to the killed entries.
"""

import numpy as np
import pytest

from qgeo import batch, diagrams, sampling
from qgeo.diagrams import run_suite
from qgeo.quaternion import Quaternion


def _m12_shifted(eps: float):
    """The block ``quat_matrix`` with ``eps`` added to the real part of the m12 entry."""

    def mutant(quat_matrix):
        def shifted(u):
            m = quat_matrix(u)
            m12 = batch.Quaternion(m.m12.z1 + eps, m.m12.z2)
            return type(m)(m.m11, m12, m.m21, m.m22)

        return shifted

    return mutant


def _schmidt_term_without_the_conjugate_on_gamma(schmidt_term):
    return lambda psi: psi.alpha * psi.gamma + psi.beta * psi.delta.conjugate()


def _haar_rows_without_delta(haar_rows):
    """Two-qubit states with their last amplitude set to 0, renormalized."""

    def mutant(u, n):
        rows = haar_rows(u, n)
        if n == 4:
            rows[:, 3] = 0
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return rows

    return mutant


def _no_inverse_below(cutoff: float):
    """``Quaternion._inverse_parts`` raising where |q|^2 < cutoff: an absolute zero
    rule, under which a quotient by such a q is INFINITY."""

    def mutant(inverse_parts):
        def cut(q):
            if q.norm_sq() < cutoff:
                raise ZeroDivisionError("inverse of a quaternion below the cutoff")
            return inverse_parts(q)

        return cut

    return mutant


def _marked_below(cutoff: float):
    """The block ``fraction_point``, which also marks the rows d < cutoff for the scalar code."""

    def mutant(fraction_point):
        return lambda z1, z2, d: fraction_point(z1, z2, np.where(d < cutoff, np.nan, d))

    return mutant


@pytest.mark.parametrize(
    "patches, killed_by",
    [
        pytest.param([(batch, "quat_matrix", _m12_shifted(1e-9))], {"three_way_second_equality"}, id="m12+1e-9"),
        pytest.param(
            [(diagrams, "schmidt_term", _schmidt_term_without_the_conjugate_on_gamma)],
            {"closed_form_consistency"},
            id="schmidt-term-conjugate-dropped",
        ),
        pytest.param(
            [(batch, "quat_matrix", _m12_shifted(1e-13))],
            None,
            id="m12+1e-13",
            marks=pytest.mark.xfail(
                strict=True,
                reason="worst 1.92e-13 against contracts of 1e-12 to 1e-10: "
                "ROADMAP items 5 (contracts from an error analysis) and 9 (exact certification)",
            ),
        ),
        pytest.param(
            [(sampling, "haar_rows", _haar_rows_without_delta)],
            None,
            id="haar-rows-delta-zero",
            marks=pytest.mark.xfail(
                strict=True,
                reason="every identity holds on the stratum delta = 0 (worst 1.22e-15): "
                "ROADMAP item 11's distribution rows",
            ),
        ),
        pytest.param(
            [(Quaternion, "_inverse_parts", _no_inverse_below(1e-20)), (batch, "fraction_point", _marked_below(1e-20))],
            None,
            id="zero-below-1e-20",
            marks=pytest.mark.xfail(
                strict=True,
                reason="no Haar trial reaches |q|^2 < 1e-20 (probability about 1e-40): "
                "ROADMAP items 6 (a near-pole stratum) and 21 (adversarial search)",
            ),
        ),
    ],
)
def test_a_row_of_the_suite_kills_the_mutant(monkeypatch, patches, killed_by):
    for module, name, mutant in patches:
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    failed = {check.name for check in run_suite(513, 0).checks if not check.passed}
    assert failed, "every check row passes"
    assert killed_by is None or failed == killed_by
