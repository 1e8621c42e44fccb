"""Workload traj_overlap: finite-contact cooling trajectories.

A sweep over the trap bias field and the target number in the geometry
of acceptance criterion 7 (Ioffe-Pritchard trap with G = 1 kG/cm and
C = B0 per cm^2, eta = 6.5, 10^7 buffer atoms at 10 uK).  A larger bias
softens the vertical confinement, splits the two clouds' sags and
starves the thermal contact; above 100 G the cross section also drops
to the weak-contact value.  Two legs are fixed: criterion 7's 207 G
stall leg and its 56 G condensing leg.  The seed draws the other legs.
`trajectory` and the `contact` rates in its right-hand side do the work.
"""

from __future__ import annotations

import numpy as np

import bench
import oracle

SWEEP_GAUSS, JITTER_GAUSS = (75.0, 135.0, 195.0), 10.0
N1_INI, T_INI, ETA = 1e7, 10e-6, 6.5
SIGMA_SELF = 7e-16

AUDIT_GAP = 1e-6        # |E_total - E_total[0] - E_removed| / E_total[0]
PSD_GAP = 1e-9


def leg_spec(b0_gauss: float, n2: float, stop: bool, role: str) -> dict:
    m = oracle.M_RB87
    trap = dict(B0=b0_gauss * 1e-4, G=10.0, C=b0_gauss * 1.0,
                gravity=oracle.G_STANDARD)
    f1 = oracle.ioffe_pritchard(1, -1, m, **trap)
    f2 = oracle.ioffe_pritchard(2, 2, m, **trap)
    axes = ("omega_x", "omega_y", "omega_z")
    return {"role": role, "b0_gauss": b0_gauss, "stop": stop,
            "N1": N1_INI, "N2": n2, "T1": T_INI, "T2": T_INI, "eta": ETA,
            "prefactor": 1.0, "M1": m, "M2": m,
            "w1": tuple(f1[a] for a in axes), "w2": tuple(f2[a] for a in axes),
            "wbar1": f1["omega_bar"], "wbar2": f2["omega_bar"],
            "sigma12": 2e-17 if b0_gauss > 100 else 7e-16,
            "sigma_self": SIGMA_SELF, "delta": f1["sag"] - f2["sag"],
            "trap": trap}


def leg_specs(seed: int) -> list[dict]:
    """Criterion 7's two legs, then one seeded leg per bias field in
    SWEEP_GAUSS, each run to t_end.

    The seed moves each bias by up to JITTER_GAUSS and draws the target
    number, so every seed spans strong to weak contact and the work per
    round hardly depends on the seed.
    """
    draw = bench.rng(seed, 2)
    specs = [leg_spec(207.0, 1e5, False, "stall"),
             leg_spec(56.0, 5.636e5, True, "condense")]
    for b0 in SWEEP_GAUSS:
        specs.append(leg_spec(b0 + JITTER_GAUSS * float(draw.uniform(-1, 1)),
                              float(10 ** draw.uniform(5.2, 5.6)), False,
                              "sweep"))
    return specs


def build(seed: int, sc, workdir=None):
    legs = []
    for spec in leg_specs(seed):
        t = spec["trap"]
        trap = sc.TrapConfig(B0=t["B0"], G=t["G"], C=t["C"],
                             gravity=t["gravity"])
        buffer = sc.SpeciesState(label="buffer", F=1, mF=-1, mass=spec["M1"],
                                 sigma_self=SIGMA_SELF, sigma_cross=2e-17)
        target = sc.SpeciesState(label="target", F=2, mF=2, mass=spec["M2"],
                                 sigma_self=SIGMA_SELF, sigma_cross=2e-17)
        f1 = sc.trap_frequencies(buffer, trap)
        f2 = sc.trap_frequencies(target, trap)
        state = sc.TwoGasState.from_traps(spec["N1"], spec["N2"], spec["T1"],
                                          spec["T2"], f1, f2, spec["M1"],
                                          spec["M2"], spec["sigma12"])
        cfg = sc.TrajectoryConfig(
            initial=state, eta=ETA,
            evaporation_model=sc.RateDriven(prefactor=1.0,
                                            sigma_self=SIGMA_SELF),
            contact_mode="finite", t_end=600.0, dt_max=0.1,
            stop_at_threshold=spec["stop"])
        legs.append((spec, cfg))
    return legs


def run_round(legs, ops: bench.Ops, sc, rundir=None) -> list:
    outs = []
    tr = sc.trajectory
    for spec, cfg in legs:
        res = ops.call("trajectory.simulate_with_audit",
                       tr.simulate_with_audit, cfg)
        if res is None:
            outs.append(None)
            continue
        points, audit = res
        events = ops.aux(tr.detect_events, points)
        region = ops.aux(tr.region_from_events, points)
        outs.append((points, audit, events, region))
    return outs


def same(a: list, b: list) -> bool:
    for oa, ob in zip(a, b):
        if oa is None or ob is None:
            if oa is not ob:
                return False
            continue
        if (oa[0] != ob[0] or oa[2] != ob[2] or oa[3] != ob[3]
                or not np.array_equal(oa[1]["E_removed"], ob[1]["E_removed"])):
            return False
    return True


def misfit_to_reference(spec, points) -> float:
    """oracle.ode_misfit of (N1, T1, T2) against the re-integrated ODE."""
    ts = np.array([p.t for p in points])
    got = np.array([[p.N1 for p in points], [p.T1 for p in points],
                    [p.T2 for p in points]])
    return oracle.ode_misfit(got, oracle.two_temperature(spec, ts))


def check_points(name, spec, points, audit) -> list[str]:
    """Reference-ODE agreement, energy audit and phase-space densities of
    one finite-mode trajectory."""
    fails = []
    misfit = misfit_to_reference(spec, points)
    if not misfit <= 1.0:
        fails.append(f"{name}: N1/T1/T2 off the reference ODE, misfit "
                     f"{misfit:.2f}")
    n1 = np.array([p.N1 for p in points])
    t1 = np.array([p.T1 for p in points])
    t2 = np.array([p.T2 for p in points])
    e_tot = 3.0 * oracle.K_B * (n1 * t1 + spec["N2"] * t2)
    if not np.allclose(audit["E_total"], e_tot, rtol=1e-12, atol=0.0):
        fails.append(f"{name}: audit E_total is not 3 k_B (N1 T1 + N2 T2)")
    drift = np.max(np.abs(e_tot - e_tot[0] - audit["E_removed"])) / e_tot[0]
    if not drift <= AUDIT_GAP:
        fails.append(f"{name}: E_total - E_total[0] misses E_removed by "
                     f"{drift:.2e} of E_total[0]")
    pref = oracle.PSD_PREFACTOR
    d1 = pref * n1 * (oracle.HBAR * spec["wbar1"] / (oracle.K_B * t1)) ** 3
    d2 = pref * spec["N2"] * (oracle.HBAR * spec["wbar2"]
                              / (oracle.K_B * t2)) ** 3
    got1 = np.array([p.D1 for p in points])
    got2 = np.array([p.D2 for p in points])
    if not (np.allclose(got1, d1, rtol=PSD_GAP, atol=0.0)
            and np.allclose(got2, d2, rtol=PSD_GAP, atol=0.0)):
        fails.append(f"{name}: D1/D2 differ from N (hbar w / k_B T)^3")
    return fails


def known_faults(legs, outs) -> dict:
    return {}


def check(legs, outs) -> list[str]:
    fails = []
    for (spec, cfg), out in zip(legs, outs):
        name = f"{spec['role']} {spec['b0_gauss']:.1f} G N2={spec['N2']:.4g}"
        if out is None:
            fails.append(f"{name}: simulate_with_audit raised")
            continue
        points, audit, events, region = out
        fails += check_points(name, spec, points, audit)
        if isinstance(events, Exception) or isinstance(region, Exception):
            fails.append(f"{name}: event detection raised")
        end = points[-1]
        if spec["role"] == "stall":
            i = next((k for k, p in enumerate(points) if p.stalled), None)
            if i is None or not all(p.stalled for p in points[i:]):
                fails.append(f"{name}: no latched stall")
                continue
            t2s = points[i].T2
            creep = abs(end.T2 - t2s) / t2s
            if not (200e-9 <= t2s <= 600e-9 and 200e-9 <= end.T2 <= 600e-9
                    and creep < 0.10 and end.T1 < 0.25 * end.T2
                    and not end.bec2):
                fails.append(f"{name}: stall at T2={t2s * 1e9:.0f} nK, end "
                             f"T2={end.T2 * 1e9:.0f} nK, creep {creep:.3f}")
        elif spec["role"] == "condense":
            if not (end.bec2 and end.D2 >= oracle.BEC * (1 - 1e-9)
                    and not end.bec1
                    and not any(p.stalled for p in points)):
                fails.append(f"{name}: target did not condense cleanly "
                             f"(D2={end.D2:.4f}, bec1={end.bec1})")
    return fails
