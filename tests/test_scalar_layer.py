"""The scalar layer: its value types' contract, the bits of its chain, its independence of batch, the one sampler, and read imports."""

import ast
import dataclasses
import hashlib
import math
import pickle
from pathlib import Path

import pytest

import qgeo
from qgeo.conformal import conformal_map
from qgeo.local_unitary import LocalUnitary, QuatMat2, SO2Element, SU2Element, Variant, apply_cb
from qgeo.moebius import MoebiusQ, apply_moebius_q, moebius_from_local_unitary
from qgeo.quaternion import INFINITY, Quaternion, chordal_distance
from qgeo.states import OneQubitState, Quaterbit, TwoQubitState, concurrence_term, quaternionify

_Q = Quaternion(0.6, 0.8j)
_SU2 = SU2Element(0.6 + 0.48j, 0.64j)

# One instance of every value type, with the field to assign in the frozenness test.
VALUES = {
    "Quaternion": (_Q, "z1"),
    "OneQubitState": (OneQubitState(0.6, 0.8j), "a1"),
    "TwoQubitState": (TwoQubitState(0.5, 0.5j, -0.5, 0.5), "alpha"),
    "Quaterbit": (Quaterbit(_Q, -_Q), "q1"),
    "QuatMat2": (QuatMat2.identity(), "m11"),
    "MoebiusQ": (MoebiusQ(QuatMat2.identity()), "m"),
    "SU2Element": (_SU2, "a"),
    "SO2Element": (SO2Element(0.25), "theta"),
    "LocalUnitary": (LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.25), _SU2), "theta"),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_types_are_slotted_frozen_and_picklable(name):
    value, field = VALUES[name]
    assert type(value).__name__ == name
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    if name == "LocalUnitary":  # built from its elements, not from the fields it stores
        assert LocalUnitary(value.variant, value.rot, value.su2) == value
    else:
        assert value == dataclasses.replace(value)


_INF = float("inf")
_NAN = float("nan")
# A call that builds a value from invalid or overflowing input, and its error message.
_REJECTED = {
    "Quaternion": (
        lambda: Quaternion(0j, complex(0, _INF)),
        "quaternion components must be finite, got (0j, infj)",
    ),
    "OneQubitState": (lambda: OneQubitState(1, complex(_NAN, 0)), "a2 must be finite, got (nan+0j)"),
    "TwoQubitState": (
        lambda: TwoQubitState(1, 0, complex(0, -_INF), 0),
        "gamma must be finite, got -infj",
    ),
    "SU2Element": (lambda: SU2Element(_INF, 0), "SU(2) parameters must be finite"),
    "SO2Element": (lambda: SO2Element(_NAN), "rotation angle must be finite"),
    "SU2Element_norm": (lambda: SU2Element(1, 1), "|a|^2 + |b|^2 must be 1, got 2.0"),
    "MoebiusQ": (
        lambda: MoebiusQ(QuatMat2(_Q, _Q, _Q, _Q)),
        "matrix is not invertible: Study determinant 0.0",
    ),
    "LocalUnitary": (
        lambda: LocalUnitary("so3", SO2Element(0.0), _SU2),
        "'so3' is not a valid Variant",
    ),
    "product_overflow": (
        lambda: Quaternion(1e308, 0) * Quaternion(10, 0),
        "quaternion components must be finite, got ((inf+0j), 0j)",
    ),
    "state_overflow": (
        lambda: apply_cb(VALUES["LocalUnitary"][0], TwoQubitState(1.7e308, 1.7e308, 1.7e308, 1.7e308)),
        "alpha must be finite, got (nan+infj)",
    ),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_constructors_reject_non_finite_input(case):
    build, message = _REJECTED[case]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# The bits of the scalar chain on hard inputs
# ---------------------------------------------------------------------------

# The product state (0.6, 0.8i) (x) (0.28, 0.96i), and a perturbation of it by 2e-12.
_PRODUCT = [x * y for x in (0.6, 0.8j) for y in (0.28, 0.96j)]
_NUDGE = (1e-12, -1e-12j, 1e-12j, -1e-12)
STATES = {
    "q2_zero": TwoQubitState(0.6, 0.8j, 0, 0),
    "q2_norm_sq_1e-20": TwoQubitState(0.6, 0.8j, 6e-11, 8e-11j),
    "near_product": TwoQubitState(*(p + e for p, e in zip(_PRODUCT, _NUDGE))),
}
ANGLES = {
    f"{k}pi/2{tag}": k * (math.pi / 2.0) + offset
    for k in range(4)
    for tag, offset in (("", 0.0), ("+1e-9", 1e-9))
}


def _hexes(value) -> list[str]:
    """float.hex of every real part of a result of the chain; INFINITY as its name."""
    if value is INFINITY:
        return ["INFINITY"]
    if isinstance(value, Quaternion):
        reals = value.as_reals()
    elif isinstance(value, TwoQubitState):
        reals = [x for z in (value.alpha, value.beta, value.gamma, value.delta) for x in (z.real, z.imag)]
    elif isinstance(value, complex):
        reals = (value.real, value.imag)
    else:
        reals = (value,)
    return [float.hex(x) for x in reals]


def _chain(psi: TwoQubitState, theta: float) -> tuple[str, list[str]]:
    """The gap of the README example, and float.hex of every value on the way to it."""
    u = LocalUnitary(Variant.SO2_X_SU2, SO2Element(theta), _SU2)
    x = conformal_map(quaternionify(psi))
    psi2 = apply_cb(u, psi)
    lhs = conformal_map(quaternionify(psi2))
    f = moebius_from_local_unitary(u)
    rhs = apply_moebius_q(f, x)
    gap = chordal_distance(lhs, rhs)
    values = [x, psi2, lhs, *f.m.entries(), rhs, gap, concurrence_term(psi), concurrence_term(psi2)]
    return float.hex(gap), [h for v in values for h in _hexes(v)]


# (state, angle) -> (gap as float.hex, first 16 hex digits of the sha256 of
# every value's float.hex, newline-joined).
PINNED = {
    ("q2_zero", "0pi/2"): ("0x0.0p+0", "1f078113cdc2c70a"),
    ("q2_zero", "0pi/2+1e-9"): ("0x1.54a41836d6bafp-82", "c5140fe221dd94c9"),
    ("q2_zero", "1pi/2"): ("0x1.1e3779b97f4a8p-109", "9a3bf04ac94d8535"),
    ("q2_zero", "1pi/2+1e-9"): ("0x1.2071b0abcd838p-82", "1016c2b34d5347c1"),
    # At theta = pi, q2 of the transformed state (|q2|^2 = 1.5e-32) and the
    # matrix entry m21 are rounding residues of sin(pi).  They have inverses,
    # so lhs and rhs are finite points next to INFINITY, 2.8e-32 apart.
    ("q2_zero", "2pi/2"): ("0x1.25f5d4cdc4de4p-105", "9c2be8f2e6cd4f53"),
    ("q2_zero", "2pi/2+1e-9"): ("0x1.1510c7919680fp-81", "017456148f90e555"),
    ("q2_zero", "3pi/2"): ("0x1.07e0f66afed07p-104", "c8c4b8e610185cdf"),
    ("q2_zero", "3pi/2+1e-9"): ("0x1.bb67ae8584caap-83", "f8cd03b5ce288284"),
    ("q2_norm_sq_1e-20", "0pi/2"): ("0x1.937aaad490a43p-87", "7bf268d425613be9"),
    ("q2_norm_sq_1e-20", "0pi/2+1e-9"): ("0x1.de23bd3e91bb5p-84", "99a0ab12b9c1355d"),
    ("q2_norm_sq_1e-20", "1pi/2"): ("0x1.21c5b70d9f824p-85", "1d53147993ba48c5"),
    ("q2_norm_sq_1e-20", "1pi/2+1e-9"): ("0x1.47e7054af0989p-82", "a84b373c0400cfa4"),
    ("q2_norm_sq_1e-20", "2pi/2"): ("0x1.a661e09936959p-87", "3600cdb699f4fefb"),
    ("q2_norm_sq_1e-20", "2pi/2+1e-9"): ("0x1.0b49c3ad980c5p-83", "8b8ba27db5683733"),
    ("q2_norm_sq_1e-20", "3pi/2"): ("0x1.768ce6d3c11e0p-86", "c9ce810366820ecf"),
    ("q2_norm_sq_1e-20", "3pi/2+1e-9"): ("0x1.605d0af9d3a44p-82", "a6dca44fddf06846"),
    ("near_product", "0pi/2"): ("0x1.249fca4420c5dp-52", "f91b4509da1f55d0"),
    ("near_product", "0pi/2+1e-9"): ("0x1.a6d264457d4f3p-53", "e64b17e0c1618af8"),
    ("near_product", "1pi/2"): ("0x1.54a5364805844p-52", "3da90a4cbba93da8"),
    ("near_product", "1pi/2+1e-9"): ("0x1.553cade4b57cep-52", "360c397ce4fbdbb3"),
    ("near_product", "2pi/2"): ("0x1.ab2a907b60242p-53", "c97f123d811eed85"),
    ("near_product", "2pi/2+1e-9"): ("0x1.aec46df2f342bp-53", "1de9fe50c40767a5"),
    ("near_product", "3pi/2"): ("0x1.2233607467d78p-52", "33327e70bc900695"),
    ("near_product", "3pi/2+1e-9"): ("0x1.60f785022716ap-52", "cbbb225fffc55fac"),
}


@pytest.mark.parametrize("state", list(STATES))
@pytest.mark.parametrize("angle", list(ANGLES))
def test_scalar_chain_keeps_its_bits(state, angle):
    gap, hexes = _chain(STATES[state], ANGLES[angle])
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()[:16]
    assert (gap, digest) == PINNED[state, angle], hexes


# ---------------------------------------------------------------------------
# The scalar layer does not depend on the block layer
# ---------------------------------------------------------------------------

SCALAR_MODULES = ("quaternion", "states", "conformal", "local_unitary", "moebius")


def _imported_names(source: str) -> set[str]:
    """Every dotted part of every module and name that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_imported_names_sees_every_form_of_import():
    for source in ("from . import batch", "from .batch import Split", "import qgeo.batch", "from qgeo import batch as b"):
        assert "batch" in _imported_names(source), source


@pytest.mark.parametrize("module", SCALAR_MODULES)
def test_scalar_modules_do_not_import_batch(module):
    source = (Path(qgeo.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert "batch" not in _imported_names(source)


# ---------------------------------------------------------------------------
# One sampler: qgeo.sampling draws every random input and imports nothing of qgeo
# ---------------------------------------------------------------------------

MODULES = sorted(path.stem for path in Path(qgeo.__file__).parent.glob("*.py"))
_DRAWING_NAMES = {"default_rng", "standard_normal", "SeedSequence"}


def _drawing_names(source: str) -> set[str]:
    """The names of ``_DRAWING_NAMES`` that ``source`` uses, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names & _DRAWING_NAMES


def _imports_qgeo(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qgeo"):
            return True
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "qgeo" for a in node.names):
            return True
    return False


def _divides(source: str) -> bool:
    """Whether ``source`` imports ``divided`` or calls a name or attribute of that name."""
    calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}
    return "divided" in calls | _imported_names(source)


def test_the_guards_see_every_form():
    for source in ("np.random.default_rng(0)", "rng.standard_normal(4)", "from numpy.random import SeedSequence",
                   "import numpy.random.SeedSequence", "SeedSequence([1, 2])"):
        assert _drawing_names(source), source
    for source in ("from . import batch", "from .quaternion import J", "import qgeo.batch", "from qgeo import batch"):
        assert _imports_qgeo(source), source
    assert not _imports_qgeo("import numpy as np\nfrom math import pi")
    for source in ("divided(v, n)", "quaternion.divided(v, n)", "from .quaternion import divided as d",
                   "from qgeo.quaternion import divided"):
        assert _divides(source), source
    assert not _divides("unit(v)\nz.real / n")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_sampling_draws_random_inputs(module):
    source = (Path(qgeo.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    if module == "sampling":
        assert not _imports_qgeo(source)
    else:
        assert not _drawing_names(source)


# ---------------------------------------------------------------------------
# One normalizer and one tolerance check: quaternion.unit divides a vector by
# its norm, and states._positive checks every tol argument
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_quaternion_divides_a_vector_by_its_norm(module):
    source = (Path(qgeo.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert _divides(source) == (module == "quaternion")


def test_the_tol_check_is_written_once():
    sources = [path.read_text(encoding="utf-8") for path in Path(qgeo.__file__).parent.glob("*.py")]
    assert sum(source.count("tol must be positive and finite") for source in sources) == 1


# ---------------------------------------------------------------------------
# Every module-level import is read
# ---------------------------------------------------------------------------

# Names a module imports to hand on, never to read, beside the package's
# namespace in __init__: the error of quaternion.right_quotient that
# moebius's actions raise.
REEXPORTS = {"moebius": {"DegenerateMapError"}}


def _unread_imports(source: str) -> set[str]:
    """The names that the module-level imports of ``source`` bind and that ``source`` never reads.

    Imports inside functions, kept for a side effect such as ``import
    numpy.random``, are not counted; nor is ``from __future__ import``.
    """
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_unread_imports_sees_every_form_of_import():
    source = "from __future__ import annotations\nimport os, numpy.random\nimport numpy as np\nfrom . import batch as b\n"
    assert _unread_imports(source) == {"os", "numpy", "np", "b"}
    assert _unread_imports(source + "def f():\n    import math\n    return os, numpy, np.pi, b.BLOCK\n") == set()


@pytest.mark.parametrize("module", [module for module in MODULES if module != "__init__"])
def test_every_module_level_import_is_read(module):
    source = (Path(qgeo.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert _unread_imports(source) == REEXPORTS.get(module, set())
