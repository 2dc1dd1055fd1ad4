"""The `api` workload: the README's library example on a seeded stream of items.

Each item is a (state, so2xsu2 transform) pair.  Six in ten are Haar-random
states with uniform angles; the other four each come from one hard stratum
that Haar sampling (and so `qgeo verify`) practically never reaches:

- ``infinity``: q2 = 0 exactly, so the conformal image is INFINITY;
- ``small_q2``: |q2|^2 log-uniform in [1e-20, 1];
- ``near_product``: a product state plus a perturbation of norm 1e-14 to 1e-6;
- ``angle``: theta a multiple of pi/2, exactly or within 1e-9 of one.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import qgeo as q

STRATA = ("haar",) * 6 + ("infinity", "small_q2", "near_product", "angle")

# Contracts of the matching suite checks: three_way_second_equality and
# concurrence_invariance_so2xsu2.
INTERTWINING_TOL = 1e-10
CONCURRENCE_TOL = 1e-12


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def make_items(seed: int, n: int) -> list[tuple[str, q.TwoQubitState, q.LocalUnitary]]:
    """n (stratum, state, transform) items, a pure function of seed."""
    rng = np.random.default_rng([seed, 0xA9])
    items = []
    for i in range(n):
        stratum = STRATA[i % len(STRATA)]
        g = rng.standard_normal(8)
        amps = g[:4] + 1j * g[4:]
        if stratum == "infinity":
            amps[2:] = 0.0
        elif stratum == "small_q2":
            t = 10.0 ** rng.uniform(-20.0, 0.0)
            amps[:2] = math.sqrt(1.0 - t) * _unit(amps[:2])
            amps[2:] = math.sqrt(t) * _unit(amps[2:])
        elif stratum == "near_product":
            h = rng.standard_normal(4)
            first = _unit(np.array([h[0] + 1j * h[1], h[2] + 1j * h[3]]))
            eps = 10.0 ** rng.uniform(-14.0, -6.0)
            amps = np.kron(first, _unit(amps[:2])) + eps * _unit(amps)
        psi = q.TwoQubitState.from_vector(amps, renormalize=True)

        theta = rng.uniform(0.0, 2.0 * math.pi)
        if stratum == "angle":
            k = int(rng.integers(0, 4))
            offset = 0.0 if i % 20 < 10 else rng.uniform(-1e-9, 1e-9)
            theta = k * (math.pi / 2.0) + offset
        s = _unit(rng.standard_normal(4))
        u = q.LocalUnitary(
            q.Variant.SO2_X_SU2,
            q.SO2Element(theta),
            q.SU2Element(complex(s[0], s[1]), complex(s[2], s[3])),
        )
        items.append((stratum, psi, u))
    return items


def evaluate(psi: q.TwoQubitState, u: q.LocalUnitary) -> tuple[float, float]:
    """Intertwining gap and concurrence-invariance gap of one item."""
    x = q.conformal_map(q.quaternionify(psi))
    psi2 = q.apply_cb(u, psi)
    lhs = q.conformal_map(q.quaternionify(psi2))
    rhs = q.apply_moebius_q(q.moebius_from_local_unitary(u), x)
    gap = q.chordal_distance(lhs, rhs)
    cgap = abs(q.concurrence_term(psi2) - q.concurrence_term(psi))
    return gap, cgap


def run(items, block: int, begin_item=None) -> dict:
    """Evaluate every item in a closed loop; one item starts when the last ends.

    ``dev_over_tol`` is the median, over consecutive blocks of ``block``
    items, of the block's worst intertwining gap over its contract: unlike
    the single worst gap it hardly moves from seed to seed, yet any loss of
    accuracy moves it.  ``begin_item(i)``, when given, is called before
    item i outside its timing.
    """
    clock = time.perf_counter
    starts = []
    latencies = []
    gaps = []
    worst_gap = 0.0
    worst_cgap = 0.0
    failures = []
    t_start = clock()
    for i, (stratum, psi, u) in enumerate(items):
        if begin_item is not None:
            begin_item(i)
        t0 = clock()
        starts.append(t0)
        try:
            gap, cgap = evaluate(psi, u)
        except Exception as exc:  # an item that raises is a recorded failure
            latencies.append(clock() - t0)
            failures.append({"item": i, "stratum": stratum, "error": repr(exc)})
            gaps.append(math.inf)
            continue
        latencies.append(clock() - t0)
        gaps.append(gap)
        # Written so that a NaN gap fails too.
        if not (gap <= INTERTWINING_TOL and cgap <= CONCURRENCE_TOL):
            failures.append({"item": i, "stratum": stratum, "gap": gap, "cgap": cgap})
        worst_gap = max(worst_gap, gap)
        worst_cgap = max(worst_cgap, cgap)
    t_end = clock()
    block_worst = [max(gaps[k : k + block]) for k in range(0, len(gaps), block)]
    return {
        "t0": t_start,
        "t1": t_end,
        "phase_s": t_end - t_start,
        "dev_over_tol": statistics.median(block_worst) / INTERTWINING_TOL,
        "starts": starts,
        "latencies_us": [t * 1e6 for t in latencies],
        "worst_gap": worst_gap,
        "worst_cgap": worst_cgap,
        "failures": failures,
    }
