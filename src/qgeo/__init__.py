"""Quaternionic geometry of two-qubit pure states.

Two-qubit amplitudes are packed into a pair of quaternions, a conformal
quotient map sends the pair to the extended quaternion line (a 4-sphere),
and the separable local unitary subgroups of Sp(2) act on that line through
quaternionic Moebius transformations.  A seeded randomized harness verifies
every intertwining and invariance identity involved.
"""

from .quaternion import (
    INFINITY,
    AtInfinity,
    ExtendedQuaternion,
    Quaternion,
    chordal_distance,
    ext_isclose,
    left_quotient,
    right_quotient,
)
from .states import (
    OneQubitState,
    Quaterbit,
    TwoQubitState,
    concurrence_term,
    dequaternionify,
    haar_random_one_qubit,
    haar_random_state,
    is_separable,
    quaternionify,
    schmidt_term,
    state_matrix,
    wootters_preconcurrence,
)
from .conformal import (
    conformal_map,
    conformal_map_dual,
    conformal_map_one_qubit,
    embed_complex,
    inverse_stereographic,
    schmidt_concurrence_form,
)
from .local_unitary import (
    LocalUnitary,
    QuatMat2,
    SO2Element,
    SU2Element,
    Variant,
    apply_B_quaterbit,
    apply_cb,
    apply_su2,
    complex_form,
    complexify,
    complexify_alt,
    is_quaternionic_complex_matrix,
    quat_matrix,
    random_local_unitary,
    random_su2,
    sp2_check_complex,
    sp2_check_quaternionic,
)
from .moebius import (
    MoebiusQ,
    VariantOrder,
    apply_moebius_q,
    apply_moebius_q_variant,
    compose,
    moebius_from_local_unitary,
)
from .diagrams import (
    DiagramReport,
    FailureSearch,
    Witness,
    check_one_qubit_diagram,
    check_quadrangle,
    check_second_qubit_inertness,
    check_three_way,
    find_variant_failure_witness,
    run_suite,
)

__version__ = "0.1.0"
