"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Budgets follow the stated criteria (1e5 walks where pinned);
the module takes about 10 s on 2 cores.
"""

import json
import math
import time
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linprog

import champagne as ch
from champagne import barriers
from champagne.barriers import _charge_matrix, barrier_lower_bound
from champagne.harmonic_density import McParams, ProbeSpec, harmonic_density_curve
from champagne.walker import estimate_measure, sandwich_bounds

from conftest import mobius_transported_estimate, rand_disk_points

THREADS = 4


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1: one-hole exactness ----------------------------------------------------

def test_acceptance_1_one_hole_exactness():
    configs = [(0.3, 0.05), (0.3, 0.25), (0.5, 0.25), (0.8, 0.05), (0.8, 0.25)]
    worst = 0.0
    for zeta, s in configs:
        dom = ch.domain_from_pseudo([(zeta + 0j, s)])
        est = estimate_measure(dom, 0j, target="bubble:0", n_walks=100_000,
                               epsilon=1e-6, seed=101, threads=THREADS)
        exact = ch.one_hole_exact(zeta, s)
        tol = max(0.01, 3 * est.sigma)
        diff = abs(est.estimate - exact)
        worst = max(worst, diff / tol)
        if diff > tol:
            _report("1 one-hole exactness", False,
                    f"zeta={zeta} s={s}: |{est.estimate:.5f} - {exact:.5f}| > {tol:.5f}")
    _report("1 one-hole exactness", True,
            f"5 configs at n=1e5, eps=1e-6; worst |err|/tol = {worst:.2f}")


# -- 2: criterion closed forms --------------------------------------------------

def test_acceptance_2_criterion_closed_forms():
    e11 = ch.expinv_profile(1, 1)
    e12 = ch.expinv_profile(1, 2)
    p = ch.power_profile(0.1, 2)
    checks = []
    ri = ch.criterion_integral(e11)
    checks.append(abs(ri.value - 1.0) <= 1e-6)
    rs = ch.criterion_sum(e11, K=2.0)
    checks.append(abs(rs.value - 1.0) <= 1e-6)
    checks.append(abs(ch.criterion_integral(e12).value - 0.5) <= 1e-6)
    checks.append(ch.criterion_integral(p).classification == "divergent")
    checks.append(ch.criterion_sum(p, K=2.0).classification == "divergent")
    # the sum's partial sums against its closed form (expinv) and against
    # the integral of its decreasing term, which they bound from above
    # (power, const): log(1/phi) at the gap K^-j is a + b j for power
    worst_expinv = 0.0
    for prof in (e11, e12, ch.expinv_profile(0.7, 1.3)):
        for K in (2.0, 4.0, 10.0):
            rep = ch.criterion_sum(prof, K=K)
            worst_expinv = max(worst_expinv, abs(rep.partial_sums[-1] / rep.value - 1.0))
    checks.append(worst_expinv <= 1e-12)
    bounded = True
    for prof in (p, ch.power_profile(0.5, 1.5), ch.const_profile(0.3)):
        c, gamma = (*prof.params, 0.0)[:2]
        for K in (2.0, 4.0, 10.0):
            rep = ch.criterion_sum(prof, K=K)
            a, b = math.log(1.0 / c), gamma * math.log(K)
            J = np.arange(1, rep.J_max + 1)
            integral = np.log((a + b * (J + 1)) / (a + b)) / b if b else J / a
            # a constant term makes the two equal, up to the rounding of the sums
            bounded = bounded and bool(np.all(np.array(rep.partial_sums) >= integral * (1 - 1e-12)))
    checks.append(bounded)
    _report("2 criterion closed forms", all(checks),
            f"integral(exp(-1/(1-t)))={ri.value:.9f}, sum(K=2)={rs.value:.9f}, "
            f"expinv partial sums off their closed forms by {worst_expinv:.2g} relative, "
            f"power and const partial sums above their integrals: {bounded}")


# -- 3: sandwich property --------------------------------------------------------

def test_acceptance_3_sandwich_property():
    failures = []
    for k in range(20):
        q = (0.4, 0.5, 0.6)[k % 3]
        scale = 1.0 + (k % 4) * 0.5
        depth = 6 + (k % 3)
        r = 1 - 2.0 ** -(4 + (k % 3))
        dfac = (0.5, 1.0, 1.5)[k % 3]
        seq = ch.generate_ring_lattice(q, scale, depth, seed=300 + k)
        dom = ch.build_finitely_connected(seq, 0j, r, min(0.45, dfac * (1 - r)))
        est = estimate_measure(dom, 0j, n_walks=20_000, seed=500 + k, threads=THREADS)
        sb = sandwich_bounds(dom, 0j)
        s3 = 3 * est.sigma
        if not (sb.lower_union - s3 <= est.estimate <= sb.upper_single + s3):
            failures.append((k, sb.lower_union, est.estimate, sb.upper_single))
    _report("3 sandwich property", not failures,
            f"20 randomized finitely connected domains bracketed within 3 sigma"
            + (f"; failures: {failures}" if failures else ""))


# -- 4: barrier consistency -------------------------------------------------------

def test_acceptance_4_barrier_consistency():
    # one layer collapses to the exact one-hole complement
    lam, delta = 0.6 + 0j, 0.1
    dom1 = ch.domain_from_pseudo([(lam, delta)], meta={"r": 0.9})
    cert1 = barrier_lower_bound(dom1, eta=0.3)
    exact = 1 - ch.one_hole_exact(lam, delta)
    one_layer_ok = abs(cert1.exterior_lower - exact) <= 1e-12

    # multi-layer certificates stay below Monte Carlo, and their weights are
    # the optimum of their linear program (HiGHS at 1e-10 feasibility
    # tolerances), so no other nonnegative shell weights that reach 1 on
    # the samples give a better bound
    solve = barriers._shell_weights
    seen = []

    def spy(M):
        seen.append((M, solve(M)))
        return seen[-1][1]

    mc_ok = lp_ok = True
    for k in range(10):
        q = (0.45, 0.5, 0.55)[k % 3]
        seq = ch.generate_ring_lattice(q, 1.0 + (k % 3) * 0.5, 6 + (k % 2), seed=700 + k)
        domk = ch.build_finitely_connected(seq, 0j, 1 - 2.0 ** -(4 + (k % 2)), "one-minus-r")
        with mock.patch.object(barriers, "_shell_weights", spy):
            cert = barrier_lower_bound(domk, eta=0.5)
        est = estimate_measure(domk, 0j, n_walks=20_000, seed=900 + k, threads=THREADS)
        mc_ok = mc_ok and (cert.exterior_lower <= est.estimate + 3 * est.sigma)
        M, w = seen.pop()
        opt = linprog(M[-1], A_ub=-M[:-1], b_ub=-np.ones(len(M) - 1), bounds=(0, None),
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
        lp_ok = lp_ok and opt.status == 0 and abs(M[-1] @ w - opt.fun) <= 1e-9 * opt.fun

    _report("4 barrier consistency", one_layer_ok and mc_ok and lp_ok,
            f"one-layer diff={abs(cert1.exterior_lower - exact):.2e}, "
            f"10 multi-layer certificates below MC+3sigma: {mc_ok}, "
            f"weights optimal against linprog: {lp_ok}")


# -- 5: dichotomy trend -------------------------------------------------------------

def test_acceptance_5_dichotomy_trend():
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    truncations = [1 - 2.0 ** -4, 1 - 2.0 ** -6, 1 - 2.0 ** -8]
    ring1 = 0.5

    def sweep(profile):
        rows = []
        for R in truncations:
            dom = ch.build_champagne(seq, profile, R)
            dom.build_index(512)  # shared grid couples walks across truncations
            est = estimate_measure(dom, 0j, n_walks=100_000, seed=77, threads=THREADS)
            mods = np.abs(dom.pseudo_centers)
            beyond = mods > ring1 + 1e-9
            tail = float(np.sum(np.log(mods[beyond]) / np.log(dom.pseudo_radii[beyond])))
            rows.append((R, est.estimate, est.sigma, max(0.0, 1.0 - tail)))
        return rows

    conv = sweep(ch.expinv_profile(1, 1))
    above = all(est >= bound - 3 * sig for _, est, sig, bound in conv)
    dec1 = conv[0][1] - conv[1][1]
    dec2 = conv[1][1] - conv[2][1]
    ratio = dec2 / dec1 if dec1 > 0 else math.inf
    conv_ok = above and dec1 > 0 and ratio < 0.5

    div = sweep(ch.power_profile(0.1, 2))
    dec_div = [a[1] - b[1] for a, b in zip(div, div[1:])]
    div_ok = all(d > 0 for d in dec_div) and div[-1][1] < 0.5

    _report("5 dichotomy trend", conv_ok and div_ok,
            f"convergent est={[f'{e:.4f}' for _, e, _, _ in conv]} "
            f"above union bounds beyond ring 1: {above}, decrement ratio={ratio:.2f}; "
            f"divergent est={[f'{e:.4f}' for _, e, _, _ in div]} "
            f"decreasing and ends below 0.5: {div_ok}")


# -- 6: density coherence --------------------------------------------------------------

def test_acceptance_6_density_coherence():
    r = 1 - 2.0 ** -8
    probes = (0j, 0.2 + 0.1j, -0.15 + 0.22j)
    spec = ProbeSpec(points=probes)
    results = {}
    for scale in (2, 4):
        seq = ch.generate_ring_lattice(0.5, scale, 12, seed=20)
        ud = ch.uniform_density(seq, [r], mode="lower", probe_points=np.asarray(probes))
        mc = McParams(n_walks=20_000, seed=42, threads=THREADS, walk_cap=400_000)
        hd = harmonic_density_curve(seq, [r], "lower", spec, mc)
        results[scale] = (ud.lower_curve[0], hd.curve[0])
    u2, h2 = results[2]
    u4, h4 = results[4]
    ratio2 = h2 / u2
    hard_ok = 1.0 / 3.0 <= ratio2 <= 3.0
    soft_ok = 0.5 <= ratio2 <= 2.0
    paired_u = u4 / u2
    paired_h = h4 / h2
    paired_ok = (u4 > u2 and h4 > h2
                 and 1.5 <= paired_u <= 2.5 and 1.5 <= paired_h <= 2.5)
    _report("6 density coherence", hard_ok and paired_ok,
            f"scale 2: uniform={u2:.3f} harmonic={h2:.3f} ratio={ratio2:.2f}"
            f"{' (within factor 2)' if soft_ok else ' (outside factor 2, inside hard factor 3)'}"
            f"; paired-scale ratios uniform={paired_u:.2f}, harmonic={paired_h:.2f}")


# -- 7: invariance suite ------------------------------------------------------------------

def test_acceptance_7_invariance_suite():
    rng = np.random.default_rng(2024)

    # pseudohyperbolic distance under 1e4 random automorphism triples
    a = rand_disk_points(rng, 10_000, 0.9)
    z = rand_disk_points(rng, 10_000, 0.9)
    w = rand_disk_points(rng, 10_000, 0.9)
    d0 = np.abs((z - w) / (1 - np.conj(w) * z))
    za = (a - z) / (1 - np.conj(a) * z)
    wa = (a - w) / (1 - np.conj(a) * w)
    d1 = np.abs((za - wa) / (1 - np.conj(wa) * za))
    rho_ok = float(np.max(np.abs(d1 - d0))) <= 1e-12

    # log|B| under transported zeros, 1e4 evaluations of the barrier's
    # compiled kernel with one shell
    zeros = rand_disk_points(rng, 10, 0.85)
    one_shell = np.zeros(zeros.size, dtype=np.int64)
    worst_lb = 0.0
    for aa, zz in zip(rand_disk_points(rng, 10_000, 0.8), rand_disk_points(rng, 10_000, 0.8)):
        v0 = _charge_matrix(zeros, one_shell, [zz])[0, 0]
        moved = (aa - zeros) / (1 - np.conj(aa) * zeros)
        v1 = _charge_matrix(moved, one_shell, [(aa - zz) / (1 - np.conj(aa) * zz)])[0, 0]
        worst_lb = max(worst_lb, abs(v1 - v0))
        if worst_lb > 1e-10:
            break
    lb_ok = worst_lb <= 1e-10

    # WoS estimates under transport, within combined 3 sigma
    seq = ch.generate_ring_lattice(0.5, 1.5, 6, seed=42)
    dom = ch.build_finitely_connected(seq, 0j, 1 - 2.0 ** -4, "one-minus-r")
    base = estimate_measure(dom, 0j, n_walks=30_000, seed=1, threads=THREADS)
    wos_ok = True
    for i, aa in enumerate((0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.6j)):
        moved = mobius_transported_estimate(dom, 0j, aa, n_walks=30_000,
                                            seed=2 + i, threads=THREADS)
        s3 = 3 * math.sqrt(base.sigma ** 2 + moved.sigma ** 2)
        wos_ok = wos_ok and abs(base.estimate - moved.estimate) <= s3

    # byte equality across thread counts
    import os
    t_max = max(os.cpu_count() or 1, 4)
    runs = [estimate_measure(dom, 0j, n_walks=20_000, seed=5, threads=t)
            for t in (1, 4, t_max)]
    det_ok = (runs[0].canonical_json() == runs[1].canonical_json() == runs[2].canonical_json())

    _report("7 invariance suite", rho_ok and lb_ok and wos_ok and det_ok,
            f"rho<=1e-12: {rho_ok}, log|B|<=1e-10: {lb_ok}, "
            f"WoS transport within 3 sigma: {wos_ok}, thread byte-equality: {det_ok}")


# -- 8: performance floor (soft) ------------------------------------------------------------

def test_acceptance_8_performance_floor(tmp_path):
    from champagne.cli import main

    seq = ch.generate_ring_lattice(0.5, 5, 10, seed=1)
    dom = ch.build_champagne(seq, ch.power_profile(0.05, 2), 1 - 2.0 ** -10)
    assert dom.n_bubbles >= 10_000
    dom_path = tmp_path / "big.json"
    dom.save(dom_path)
    out = tmp_path / "est.json"
    assert main(["measure", "--domain", str(dom_path), "--walks", "4000",
                 "--seed", "3", "--threads", "1", "-o", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    rate = res["steps_total"] / res["wall_time"]
    floor = 1e5
    status = "PASS" if rate >= floor else ("FLAGGED (within 2x)" if rate >= floor / 2
                                           else "FLAGGED (regression beyond 2x)")
    _report("8 performance floor (soft)", rate > 0,
            f"{rate:,.0f} steps/s/core on {dom.n_bubbles} bubbles "
            f"(target >= 1e5, soft): {status}")
