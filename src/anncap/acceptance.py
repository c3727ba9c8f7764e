"""The acceptance suite: one pass/fail verdict per criterion.

Every criterion is an executable restatement of a headline claim, checked
against frozen oracle values, independent discrete solves, or fitted
exponents with pinned tolerances.  The CLI's verify-all writes one line
per criterion of CRITERIA.
"""

from __future__ import annotations

import math
import time

from .bounds import blowup_probe
from .capacity import cap_radial_p1, cap_rn_unweighted, cap_snake
from .decay import ad_ratio_trend, check_one_ad, estimate_ad_exponent, fit_annulus_decay
from .gallery import (_ad_bounded, _cap_slope, _nice_envelope, _pinch_probe, _thin_annuli,
                      _thin_family, default_gallery, make_bowtie, make_buckley, make_halfline,
                      make_rn_unweighted, make_snake)
from .measure import mu_family
from .network import (build_bowtie_grid, build_radial_network, build_snake_network, condenser_bc,
                      solve_p_energy)
from .spaces import AnnulusSpec, HalfLine, SpaceSpec, TraitSet
from .weights import Constant, HalfLineKind

__all__ = ["CRITERIA"]

SOLVE_TIME_LIMIT = 2.0


def criterion_1():
    """Oracle equivalence: closed forms vs 2000-cell network solves."""
    worst_rel = 0.0
    worst_time = 0.0
    for n in (2, 3):
        space = make_rn_unweighted(n).space
        for p in (1.5, 2.0, 3.0):
            for r, R in ((1.0, 2.0), (0.9, 1.0)):
                exact = cap_rn_unweighted(n, p, AnnulusSpec(r, R)).value
                net = build_radial_network(space, r, R, 2000)
                bc = condenser_bc(net, r, R)
                t0 = time.perf_counter()
                rep = solve_p_energy(net, bc, p)
                dt = time.perf_counter() - t0
                worst_time = max(worst_time, dt)
                worst_rel = max(worst_rel, abs(rep.energy - exact) / exact)
    ok = worst_rel <= 0.01 and worst_time < SOLVE_TIME_LIMIT
    return ok, f"worst relative error {worst_rel:.3e} (limit 1e-2), slowest solve {worst_time:.2f}s"


def criterion_2():
    """Thin-annulus exponent 1 - p in unweighted R^2, plus non-trending
    ratio to the nice-case estimate."""
    space = make_rn_unweighted(2).space
    notes = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        rep = _nice_envelope(space, p, 12, False)
        slope = _cap_slope(rep)
        ok = ok and abs(slope - (1.0 - p)) <= 0.03 and abs(rep.slope) <= 0.05
        notes.append(f"p={p}: slope {slope:.4f} (target {1.0 - p}), ratio trend {rep.slope:.4f}")
    return ok, "; ".join(notes)


def criterion_3():
    """Buckley sharpness: capacity exponent eta - p and a FAILing nice-case
    envelope with trend slope eta - 1."""
    ok = True
    notes = []
    p = 2.0
    for eta in (0.3, 0.5, 0.8):
        space = make_buckley(eta).space
        rep = _nice_envelope(space, p, 12, False)
        slope = _cap_slope(rep)
        ok = ok and abs(slope - (eta - p)) <= 0.05
        ok = ok and rep.verdict == "FAIL" and abs(rep.slope - (eta - 1.0)) <= 0.05
        notes.append(f"eta={eta}: cap slope {slope:.4f} (target {eta - p}), "
                     f"envelope {rep.verdict} slope {rep.slope:.4f} (target {eta - 1.0})")
    return ok, "; ".join(notes)


def criterion_4():
    """Exact measure identities on the half-line catalog."""
    min1x = make_halfline(HalfLineKind.MIN_ONE_OVER_X).space
    expdec = make_halfline(HalfLineKind.EXP_DECAY).space
    expinv = make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ).space
    worst_log = max(abs(mu - math.log(2.0))
                    for mu in mu_family(min1x, [(R / 2.0, R) for R in (4.0, 16.0, 64.0)]))
    worst_exp = max(abs(mu - (1.0 - math.exp(-R))) for R, mu in
                    zip((0.5, 1.0, 4.0), mu_family(expdec, [(0.0, R) for R in (0.5, 1.0, 4.0)])))
    worst_inv = max(abs(mu - math.exp(-1.0 / R)) for R, mu in
                    zip((0.1, 0.25, 0.4), mu_family(expinv, [(0.0, R) for R in (0.1, 0.25, 0.4)])))
    ok = worst_log <= 1e-9 and worst_exp <= 1e-10 and worst_inv <= 1e-10
    return ok, (f"|mu(ann) - log 2| <= {worst_log:.2e} (limit 1e-9); "
                f"|mu(B_R) - (1 - e^-R)| <= {worst_exp:.2e}, "
                f"|mu(B_R) - e^(-1/R)| <= {worst_inv:.2e} (limit 1e-10)")


def criterion_5():
    """Snake: no AD, sharp base lower bound scaling, and oracle agreement."""
    entry = make_snake()
    space = entry.space
    # (i) ad_ratio diverges for eta = 0.1 as delta -> 0: strictly increasing
    # with trend slope -eta against log(1 - r/R)
    slope, ratios = ad_ratio_trend(space, entry.none_probe, 0.1)
    diverges = all(b > a for a, b in zip(ratios, ratios[1:])) and slope <= -0.09
    # (ii) cap * 2^k constant across k (p = 2)
    scaled = [cap_snake(2.0, k, 1e-3 * 2.0**k).value * 2.0**k for k in range(1, 7)]
    factor = max(scaled) / min(scaled)
    # (iii) path formula vs discrete snake oracle
    worst_rel = 0.0
    for k, delta in ((2, 0.01), (3, 0.05), (5, 0.5)):
        r, R = 2.0**k - delta, 2.0**k + delta
        net = build_snake_network(k_max=8, cells_per_unit=4.0, extra_radii=(r, R))
        rep = solve_p_energy(net, condenser_bc(net, r, R), 2.0)
        exact = cap_snake(2.0, k, delta).value
        worst_rel = max(worst_rel, abs(rep.energy - exact) / exact)
    ok = diverges and factor <= 1.1 and worst_rel <= 0.02
    return ok, (f"ad_ratio increasing with trend slope {slope:.3f}; scaled-capacity spread "
                f"{factor:.4f} (limit 1.1); oracle relative error {worst_rel:.3e} (limit 2e-2)")


def criterion_6():
    """Bow-tie: raw measure exponent n + alpha, and vanishing capacity at
    p = n + alpha under mesh halving."""
    notes = []
    ok = True
    for alpha in (-0.5, 0.5):
        entry = make_bowtie(alpha)
        target = 2.0 + alpha
        rep = fit_annulus_decay(entry.space, 1.0, _thin_family(1.0, 10))
        ok = ok and abs(rep.eta_hat - target) <= 0.1
        notes.append(f"alpha={alpha}: exponent {rep.eta_hat:.4f} (target {target})")
    p = 2.5
    delta = 0.125
    caps = []
    for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        net = build_bowtie_grid(0.5, h)
        rep = solve_p_energy(net, condenser_bc(net, 1.0 - delta, 1.0), p)
        caps.append(rep.energy)
    reductions = [1.0 - b / a for a, b in zip(caps, caps[1:])]
    ok = ok and all(red >= 0.25 for red in reductions)
    notes.append("p=2.5 capacity per mesh halving: "
                 + ", ".join(f"{c:.4g}" for c in caps)
                 + f" (reductions {', '.join(f'{r:.0%}' for r in reductions)}, need >= 25%)")
    return ok, "; ".join(notes)


def criterion_7():
    """Decay-exponent guard: eta_hat <= 1.05 on every gallery space."""
    worst_name, worst = "", -math.inf
    for entry in default_gallery():
        rep = estimate_ad_exponent(entry.space, entry.ad_families)
        if rep.eta_hat > worst:
            worst_name, worst = entry.name, rep.eta_hat
    ok = worst <= 1.05
    return ok, f"largest eta_hat {worst:.4f} on {worst_name} (limit 1.05)"


def criterion_8():
    """1-AD characterization: condition (b) matches the direct eta = 1
    boundedness verdict on five spaces; the condition (d) strengthening
    fails exactly where reverse-doubling fails."""
    snake = make_snake()
    cases = {
        "rn-2": (make_rn_unweighted(2), _thin_annuli(1.0)),
        "buckley-0.5": (make_buckley(0.5), _thin_annuli(1.0)),
        "min-one-over-x": (make_halfline(HalfLineKind.MIN_ONE_OVER_X), _thin_annuli(64.0)),
        "exp-decay": (make_halfline(HalfLineKind.EXP_DECAY), _thin_annuli(8.0)),
        "snake": (snake, list(snake.none_probe)),
    }
    ok = True
    notes = []
    d_failures = set()
    for name, (entry, annuli) in cases.items():
        rep = check_one_ad(entry.space, entry.one_ad_range)
        bounded, _ = _ad_bounded(entry.space, annuli, 1.0)
        ok = ok and rep.condition_b == bounded
        if not rep.condition_d:
            d_failures.add(name)
        notes.append(f"{name}: (b) {rep.condition_b} vs envelope {bounded}")
    ok = ok and d_failures == {name for name, (entry, _) in cases.items()
                               if "condition-d-fails" in dict(entry.claims)}
    notes.append(f"(d) fails on {sorted(d_failures)} (expected min-one-over-x, exp-decay)")
    return ok, "; ".join(notes)


def criterion_9():
    """p = 1 consistency: inf-cut formula vs discrete min-cut."""
    worst = 0.0
    cases = []
    rn = make_rn_unweighted(2).space
    for r, R in ((1.0, 2.0), (0.7, 1.0), (2.0, 4.0)):
        cases.append((rn, AnnulusSpec(r, R)))
    buck = make_buckley(0.5).space
    for r, R in ((0.5, 1.0), (1.5, 3.0)):
        cases.append((buck, AnnulusSpec(r, R)))
    for space, ann in cases:
        exact = cap_radial_p1(space, ann).value
        net = build_radial_network(space, ann.r, ann.R, 2000)
        rep = solve_p_energy(net, condenser_bc(net, ann.r, ann.R), 1.0)
        worst = max(worst, abs(rep.energy - exact) / exact)
    ok = worst <= 0.01
    return ok, f"worst relative error vs min-cut {worst:.3e} (limit 1e-2)"


def criterion_10():
    """Blowup: exact 1/delta divergence on the half-line; NO-BLOWUP with
    capacity 0 on the bow-tie at p = n + alpha."""
    space = SpaceSpec(HalfLine(), Constant(),
                      traits=TraitSet(pi_exponents=frozenset({1.0})))
    rep = blowup_probe(space, 2.0, 1.0, [2.0**-j for j in range(1, 13)])
    # relative to 1/delta
    worst = max(abs(cap - 1.0 / d) * d for d, cap in zip(rep.deltas, rep.values))
    degenerate, brep = _pinch_probe(make_bowtie(0.5).space, 2.5)
    ok = worst <= 1e-8 and rep.verdict == "BLOWUP" and degenerate
    return ok, (f"half-line |cap - 1/delta| relative error {worst:.2e} (limit 1e-8), {rep.verdict}; "
                f"bow-tie at p = n + alpha: {brep.verdict}, max capacity {max(brep.values):.3g}")


CRITERIA = (
    ("oracle equivalence", criterion_1),
    ("thin-annulus exponent", criterion_2),
    ("Buckley sharpness", criterion_3),
    ("exact measure identities", criterion_4),
    ("snake suite", criterion_5),
    ("bow-tie", criterion_6),
    ("eta <= 1 guard", criterion_7),
    ("1-AD characterization", criterion_8),
    ("p = 1 consistency", criterion_9),
    ("blowup", criterion_10),
)

