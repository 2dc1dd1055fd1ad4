"""What the benchmark under perfbench/ reads of the library still works.

The benchmark's modules are loaded from their files and only read: a
library change that breaks the tracer's patching, the api workload's items
or the verify workload's count of report units fails here first.
"""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qgeo
from qgeo import conformal_map, diagrams, local_unitary, quaternionify
from qgeo.cli import load_state, load_transform
from qgeo.diagrams import run_suite
from qgeo.local_unitary import LocalUnitary, SO2Element, SU2Element, Variant
from qgeo.moebius import orbit_s4
from qgeo.quaternion import Quaternion

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's speed, tracer, api and run modules; run.py imports the first two by name."""
    modules = {}
    for name in ("speed", "tracer", "api", "run"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return SimpleNamespace(**modules)


def test_tracer_installs_and_uninstalls(perfbench):
    conformal_map, mul = qgeo.conformal_map, Quaternion.__mul__
    tracer = perfbench.tracer.Tracer()
    try:
        tracer.install()
        assert qgeo.conformal_map is not conformal_map and Quaternion.__mul__ is not mul
    finally:
        tracer.uninstall()
    assert qgeo.conformal_map is conformal_map and Quaternion.__mul__ is mul


def test_api_items_evaluate_within_their_contracts(perfbench):
    assert perfbench.api.run(perfbench.api.make_items(0, 20), 10)["failures"] == []


def test_api_items_make_no_libm_call(perfbench, monkeypatch):
    # A LocalUnitary computes its factors when it is built, not once per state.
    items = perfbench.api.make_items(0, 50)
    calls = dict.fromkeys(("cos", "sin"), 0)

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(math, name)(x)

        return call

    monkeypatch.setattr(local_unitary, "math", SimpleNamespace(**{**vars(math), **{n: counted(n) for n in calls}}))
    assert perfbench.api.run(items, 10)["failures"] == []
    assert calls == {"cos": 0, "sin": 0}
    LocalUnitary(Variant.SO2_X_SU2, SO2Element(0.7), SU2Element(1, 0))
    assert calls == {"cos": 1, "sin": 1}  # the constructor calls the counted binding


def test_perfbench_reads_of_a_local_unitary_round_trip():
    # api.py builds LocalUnitary(variant, SO2Element, SU2Element); run.py reads
    # u.variant, u.rot.theta and u.su2 back.
    su2 = SU2Element(0.6 + 0.48j, 0.64j)
    for variant in Variant:
        u = LocalUnitary(variant, SO2Element(0.7), su2)
        assert (u.variant, u.rot.theta, u.su2) == (variant, 0.7, su2)
        assert LocalUnitary(u.variant, SO2Element(u.rot.theta), u.su2) == u


def test_report_holds_the_verify_units_and_check_loops(perfbench):
    report = run_suite(3, 0)
    assert len(report.checks) + len(report.witness_searches) == perfbench.run.VERIFY_UNITS
    assert len({diagrams._row(c.name)[0].idx for c in report.checks}) == perfbench.run.VERIFY_CHECK_LOOPS


def test_orbit_reference_builds_its_local_unitary(perfbench, tmp_path):
    # run.py builds LocalUnitary(u.variant, SO2Element(...), u.su2) for the
    # orbit workload's closed-form last row: the type check must accept it.
    state, transform = perfbench.run.write_orbit_inputs(1, tmp_path)
    first, last = perfbench.run.orbit_reference(state, transform, 10)
    u = load_transform(str(transform))
    x0 = conformal_map(quaternionify(load_state(str(state))))
    assert np.abs(orbit_s4(u, x0, 0, 11)[[0, 10]] - [first, last]).max() <= 1e-12


def test_every_private_quaternion_kernel_is_on_the_api_path(perfbench, monkeypatch):
    # A fused kernel earns its place only where the api workload times it.
    kernels = [name for name in vars(Quaternion) if name.startswith("_") and not name.startswith("__")]
    calls = dict.fromkeys(kernels, 0)
    for name in kernels:
        kernel = getattr(Quaternion, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(Quaternion, name, counted)
    items = perfbench.api.make_items(0, 50)
    assert "infinity" in {stratum for stratum, _, _ in items}
    perfbench.api.run(items, 10)
    assert kernels and all(calls.values()), calls
