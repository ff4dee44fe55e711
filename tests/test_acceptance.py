"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion pins its tolerance here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
from scipy.stats import binomtest

from mfgp_search import (
    Bump,
    FidelityModel,
    GridDomain,
    Label,
    MissionConfig,
    SampleLog,
    append_sample_variance_only,
    build_tour,
    compare_decay,
    confidence_interval,
    detection_time_study,
    greedy_info_gain,
    posterior,
    run_mission,
    run_missions,
    select_next_point,
)
from mfgp_search.formats import dump_json

from oracles import (
    exhaustive_open_tour,
    joint_gaussian_posterior,
    logdet_information,
    scalar_nearest_neighbor,
    scalar_path_length,
    textbook_gp_posterior,
)


def verdict(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion-{number:02d}] {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name}: {detail}"


DESK_DOMAIN = GridDomain(0.0, 20.0, 0.0, 20.0, 20)
DESK_MODEL = FidelityModel(
    mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(0.12, 0.08), z=(8.0, 4.0)
)
DESK_CONFIG = MissionConfig(
    domain=DESK_DOMAIN, model=DESK_MODEL, delta=0.1, th=0.3, seed=0, max_epochs=8
)

PLANTED_MODEL = FidelityModel(
    mu=(0.0, 0.0), v=(0.5, 0.3), l=(5.0, 2.5), s=(0.08, 0.05), z=(8.0, 4.0)
)
PLANTED_CONFIG = MissionConfig(
    domain=DESK_DOMAIN,
    model=PLANTED_MODEL,
    delta=0.1,
    th=0.5,
    seed=0,
    mode="planted",
    bumps=(
        Bump(4.5, 4.5, 1.2, 2.2),
        Bump(14.5, 6.5, 1.2, 2.2),
        Bump(8.5, 15.5, 1.2, 2.2),
    ),
    background=-0.1,
    max_epochs=30,
)


@pytest.fixture(scope="module")
def mission_batch():
    """50 prior-draw desk missions at delta = 0.1, shared by criteria 6 and 7."""
    t0 = time.monotonic()
    reports = list(run_missions(DESK_CONFIG, seeds=range(50)))
    return reports, time.monotonic() - t0


def random_stack(rng, levels: int) -> FidelityModel:
    v = tuple(sorted(rng.uniform(0.15, 0.8, size=levels), reverse=True))
    l = tuple(sorted(rng.uniform(1.0, 6.0, size=levels), reverse=True))
    z = tuple(sorted(rng.uniform(2.0, 12.0, size=levels), reverse=True))
    s = tuple(rng.uniform(0.05, 0.2, size=levels))
    mu = tuple(rng.uniform(-0.2, 0.2, size=levels))
    return FidelityModel(mu=mu, v=v, l=l, s=s, z=z)


def test_c01_inference_oracle_equivalence():
    domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        levels = int(rng.integers(1, 4))
        model = random_stack(rng, levels)
        n = int(rng.integers(1, 16))
        log = SampleLog(domain)
        fids = np.sort(rng.integers(1, levels + 1, size=n))
        for c, m in zip(rng.integers(0, domain.n_cells, size=n), fids):
            log.append(int(c), float(rng.normal()), int(m))
        post = posterior(log, model)
        mu_ref, var_ref = joint_gaussian_posterior(
            log.locations(), log.fidelities(), log.values(),
            domain.cell_centers, model.mu, model.v, model.l, model.s,
        )
        mu_err = np.max(np.abs(post.mu - mu_ref)) / max(1.0, np.max(np.abs(mu_ref)))
        var_err = np.max(np.abs(post.sigma2 - var_ref)) / max(1.0, np.max(np.abs(var_ref)))
        worst = max(worst, mu_err, var_err)
    elapsed = time.monotonic() - t0
    verdict(
        1,
        "inference-oracle-equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_single_fidelity_reduction():
    domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        model = random_stack(rng, 1)
        n = int(rng.integers(1, 14))
        log = SampleLog(domain)
        for c in rng.integers(0, domain.n_cells, size=n):
            log.append(int(c), float(rng.normal()), 1)
        post = posterior(log, model, jitter_scale=0.0)
        mu_ref, var_ref = textbook_gp_posterior(
            log.locations(), log.values(), domain.cell_centers,
            model.mu[0], model.v[0], model.l[0], model.s[0],
        )
        worst = max(
            worst,
            float(np.max(np.abs(post.mu - mu_ref))),
            float(np.max(np.abs(post.sigma2 - var_ref))),
        )
    verdict(2, "single-fidelity-reduction", worst <= 1e-10, f"worst abs err {worst:.2e}")


def test_c03_mutual_information_identity():
    domain = GridDomain(0.0, 10.0, 0.0, 10.0, 10)
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (1, 5, 10, 15, 20):
        model = random_stack(rng, 1)
        log = SampleLog(domain)
        for c in rng.integers(0, domain.n_cells, size=n):
            log.append(int(c), float(rng.normal()), 1)
        chain = greedy_info_gain(log, model)
        ref = logdet_information(log.locations(), model.v[0], model.l[0], model.s[0])
        worst = max(worst, abs(chain - ref))
    verdict(3, "mutual-information-identity", worst <= 1e-8, f"worst abs err {worst:.2e}")


def test_c04_uncertainty_reduction_bound():
    t0 = time.monotonic()
    sigma0_sq = DESK_MODEL.prior_variance()
    s = DESK_MODEL.s[-1]
    coef = 2.0 * sigma0_sq / np.log1p(sigma0_sq / (s * s))
    post = posterior(SampleLog(DESK_DOMAIN), DESK_MODEL)
    cands = np.arange(DESK_DOMAIN.n_cells)
    log = SampleLog(DESK_DOMAIN)
    ok = True
    margin = np.inf
    for n in range(1, 101):
        cell = select_next_point(post, cands)
        post = append_sample_variance_only(post, cell, DESK_MODEL.levels)
        log.append(cell, 0.0, DESK_MODEL.levels)
        bound = coef * greedy_info_gain(log, DESK_MODEL) / n
        margin = min(margin, bound - post.sigma2.max())
        if post.sigma2.max() > bound:
            ok = False
            break
    elapsed = time.monotonic() - t0
    verdict(
        4,
        "uncertainty-reduction-bound",
        ok and elapsed < 60.0,
        f"min slack {margin:.3g}, {elapsed:.1f}s",
    )


def test_c05_confidence_coverage():
    rng = np.random.default_rng(31)
    n = 1_000_000
    mu, sigma = 0.3, 0.8
    draws = rng.normal(mu, sigma, size=n)
    ok = True
    details = []
    for eps in (0.01, 0.05, 0.1):
        low, up = confidence_interval(mu, sigma, eps)
        slack = 3.0 * np.sqrt(eps * (1 - eps) / n)
        above = float(np.mean(draws >= up))
        below = float(np.mean(draws <= low))
        details.append(f"eps={eps}: tails {above:.4f}/{below:.4f} vs {eps + slack:.4f}")
        ok = ok and above <= eps + slack and below <= eps + slack
    verdict(5, "confidence-coverage", ok, "; ".join(details))


def test_c06_misclassification_guarantee(mission_batch):
    reports, elapsed = mission_batch
    classified = 0
    errors = 0
    for rep in reports:
        mis = rep.misclassification()
        classified += mis["classified"]
        errors += mis["errors"]
    rate = errors / classified if classified else 0.0
    # consistent with rate <= delta: one-sided binomial test at 95%
    p = binomtest(errors, classified, p=0.1, alternative="greater").pvalue
    ok = len(reports) >= 50 and p >= 0.05 and elapsed < 600.0
    verdict(
        6,
        "misclassification-guarantee",
        ok,
        f"{errors}/{classified} = {rate:.4f} vs delta=0.1, p={p:.3f}, {elapsed:.0f}s",
    )


def test_c07_epoch_contract(mission_batch):
    reports, _ = mission_batch
    m3_model = FidelityModel(
        mu=(0.0, 0.0, 0.0),
        v=(0.5, 0.3, 0.2),
        l=(6.0, 3.0, 1.5),
        s=(0.08, 0.06, 0.05),
        z=(9.0, 6.0, 3.0),
    )
    m3 = run_mission(
        MissionConfig(
            domain=DESK_DOMAIN, model=m3_model, delta=0.1, th=0.3, seed=5, max_epochs=10
        )
    )
    ok = True
    worst_ratio = 0.0
    for rep in list(reports) + [m3]:
        for er in rep.epochs:
            if not er.capped:
                worst_ratio = max(worst_ratio, er.ratio)
                ok = ok and er.ratio <= 0.75 + 1e-6
        trace = rep.fidelity_trace
        ok = ok and all(a <= b for a, b in zip(trace, trace[1:]))
        seen = sorted(set(trace))
        ok = ok and seen == list(range(1, max(trace) + 1))
    verdict(7, "epoch-contract", ok, f"worst uncapped ratio {worst_ratio:.6f}")


def test_c08_multi_fidelity_speedup():
    n_samples = 80
    quarter = n_samples // 4
    hits = 0
    for seed in range(20):
        config = MissionConfig(
            domain=DESK_DOMAIN, model=DESK_MODEL, delta=0.1, th=0.3, seed=seed
        )
        curves = compare_decay(config, n_samples=n_samples)
        m = np.array(curves.multi_fidelity)[: quarter + 1]
        s = np.array(curves.single_fidelity)[: quarter + 1]
        if np.all(m <= s + 1e-12):
            hits += 1
    verdict(8, "multi-fidelity-speedup", hits >= 16, f"{hits}/20 seeds dominate early")


def test_c09_tsp_quality():
    worst_gap = 0.0
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.uniform(0.0, 20.0, size=(7, 2))]
        start = (0.0, 0.0, 5.0)
        tour = build_tour(pts, 5.0, start)
        best = exhaustive_open_tour(np.array([0.0, 0.0]), [np.array(p) for p in pts])
        pts3 = [(p[0], p[1], 5.0) for p in pts]
        nn_len = scalar_path_length(start, scalar_nearest_neighbor(start, pts3), pts3)
        worst_gap = max(worst_gap, tour.length / best)
        ok = ok and tour.length <= 1.05 * best + 1e-9 and tour.length <= nn_len + 1e-9
    verdict(9, "tsp-quality", ok, f"worst 2opt/optimal {worst_gap:.4f}")


def test_c10_termination_structure():
    t0 = time.monotonic()
    reports = run_missions(PLANTED_CONFIG, seeds=range(20))
    full_pass = 0
    monotone = True
    for rep in reports:
        fractions = [e.classified_fraction for e in rep.epochs]
        monotone = monotone and all(b >= a for a, b in zip(fractions, fractions[1:]))
        terminated = rep.terminated == "classified"
        targets_ok = bool(np.all(rep.labels[rep.truth_labels] == Label.TARGET))
        if terminated and targets_ok:
            full_pass += 1
    elapsed = time.monotonic() - t0
    verdict(
        10,
        "termination-structure",
        full_pass >= 18 and monotone,
        f"{full_pass}/20 seeds terminated >=99% with all targets found, {elapsed:.0f}s",
    )


def test_c11_determinism():
    config = MissionConfig(
        domain=DESK_DOMAIN, model=DESK_MODEL, delta=0.1, th=0.3, seed=12, max_epochs=5
    )
    report_a = dump_json(run_mission(config).to_json_dict()).encode()
    report_b = dump_json(run_mission(config).to_json_dict()).encode()
    decay_a = compare_decay(config, n_samples=30)
    decay_b = compare_decay(config, n_samples=30)
    ok = report_a == report_b and decay_a == decay_b
    verdict(11, "determinism", ok, f"report bytes {len(report_a)}")


def test_c12_detection_time_trend():
    t0 = time.monotonic()
    rows = detection_time_study(DESK_CONFIG, seeds=range(30), delta_bins=3)
    times = [r["mean_time"] for r in rows]
    ok = all(np.isfinite(t) for t in times) and times[0] > times[1] > times[2]
    elapsed = time.monotonic() - t0
    verdict(
        12,
        "detection-time-trend",
        ok,
        "mean t by rising margin bin: "
        + ", ".join(f"{t:.1f}" for t in times)
        + f", {elapsed:.0f}s",
    )
