"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion lines and timings.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from causalbn.bayesnet import empirical_joint, forward_sample, joint
from causalbn.cli import main
from causalbn.errors import InfeasibleEndpoints
from causalbn.graph import Dag, backdoor_admissible
from causalbn.intervention import (
    adjusted_estimate,
    conditioning_bias,
    effect_report,
    interventional_distribution,
    select_sufficient_confounders,
    unadjusted_estimate,
)
from causalbn.latent import (
    TEMPLATES,
    ScenarioParams,
    bias_scan,
    build_scenario,
    decompose_common_cause,
    scan_summary,
    scan_to_csv,
)
from causalbn.modelfile import load_model


def random_scenario(template, rng, lo=0.02, hi=0.98):
    keys = TEMPLATES[template].param_keys()
    return build_scenario(
        ScenarioParams(template, {k: float(rng.uniform(lo, hi)) for k in keys})
    )


class Stopwatch:
    """Wall clock for reporting, CPU clock for the runtime budget
    (shared-runner stalls should not fail an exactness criterion)."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def elapsed_cpu(self):
        return time.process_time() - self.cpu

    def elapsed_wall(self):
        return time.perf_counter() - self.wall


def report(n, label, sw):
    print(
        f"\nACCEPTANCE {n} [{label}]: PASS "
        f"(cpu {sw.elapsed_cpu():.2f}s, wall {sw.elapsed_wall():.2f}s)"
    )


def test_criterion_1_correlation_anchor(capsys):
    sw = Stopwatch()
    assert main(["corr", "--r1", "0.8", "--r2", "0.7"]) == 0
    out = capsys.readouterr().out
    lo_want = 0.56 - math.sqrt(0.1836)
    hi_want = 0.56 + math.sqrt(0.1836)
    lo, hi = (
        float(x)
        for x in out.splitlines()[0]
        .removeprefix("feasible interval: [")
        .removesuffix("]")
        .split(", ")
    )
    assert abs(lo - lo_want) < 1e-9
    assert abs(hi - hi_want) < 1e-9
    assert "0 excluded" in out
    assert sw.elapsed_cpu() < 1.0
    with capsys.disabled():
        report(1, "correlation bound anchor", sw)


def test_criterion_2_m_bias_identity():
    sw = Stopwatch()
    rng = np.random.default_rng(2024)
    biased = 0
    n = 1000
    for _ in range(n):
        net = random_scenario("modelB", rng)
        unadj = unadjusted_estimate(net, "Z", "Y")
        adj = adjusted_estimate(net, "Z", "Y", {"X"})
        worst_adj = 0.0
        for level in ("0", "1"):
            truth = interventional_distribution(net, "Y", {"Z": level})
            assert np.max(np.abs(unadj[level].values - truth.values)) < 1e-12
            worst_adj = max(
                worst_adj, float(np.max(np.abs(adj[level].values - truth.values)))
            )
        if worst_adj > 1e-6:
            biased += 1
    assert biased >= 0.95 * n, f"only {biased}/{n} draws showed adjustment bias"
    assert sw.elapsed_cpu() < 10.0
    report(2, f"M-bias identity, bias in {biased}/{n} draws", sw)


def test_criterion_3_backdoor_soundness():
    sw = Stopwatch()
    rng = np.random.default_rng(3)
    checked = 0
    for template in sorted(TEMPLATES):
        tpl = TEMPLATES[template]
        dag = Dag(tpl.nodes, tpl.parents)
        pool = [v for v in tpl.nodes if v not in ("Z", "Y")]
        admissible = [
            set(s)
            for r in range(len(pool) + 1)
            for s in itertools.combinations(pool, r)
            if backdoor_admissible(dag, "Z", "Y", set(s))
        ]
        for _ in range(100):
            net = random_scenario(template, rng)
            truths = {
                level: interventional_distribution(net, "Y", {"Z": level})
                for level in ("0", "1")
            }
            for s in admissible:
                adj = adjusted_estimate(net, "Z", "Y", s)
                for level in ("0", "1"):
                    assert np.max(np.abs(adj[level].values - truths[level].values)) < 1e-10
                checked += 1
    assert sw.elapsed_cpu() < 10.0
    report(3, f"back-door soundness, {checked} set-draws", sw)


def test_criterion_4_bias_formula_identity():
    sw = Stopwatch()
    rng = np.random.default_rng(4)
    templates = ("modelB", "modelC", "modelD", "model1_fig2", "model1_fig1")
    for i in range(1000):
        net = random_scenario(templates[i % len(templates)], rng)
        rep = effect_report(net, "Z", "Y", [("X",)])
        direct = conditioning_bias(net, "Z", "Y", "X")
        two_route = rep.ace_adjusted[("X",)] - rep.ace_unadjusted
        assert abs(direct - two_route) < 1e-12
    assert sw.elapsed_cpu() < 10.0
    report(4, "bias-formula identity on 1000 nets", sw)


def test_criterion_5_decomposition_identities():
    sw = Stopwatch()
    rng = np.random.default_rng(5)
    done = 0
    while done < 10000:
        py, pyp = rng.uniform(0, 1, 2)
        lo = rng.uniform(0, min(py, pyp))
        hi = rng.uniform(max(py, pyp), 1)
        if hi - lo < 1e-6:
            continue
        d = decompose_common_cause(py, pyp, lo, hi)
        recon_y = (1 - d.p_t_given_y) * lo + d.p_t_given_y * hi
        recon_yp = (1 - d.p_t_given_yprime) * lo + d.p_t_given_yprime * hi
        assert abs(recon_y - py) < 1e-12 and abs(recon_yp - pyp) < 1e-12
        # dissection ratio in cross-multiplied form: stable at the endpoints
        assert abs(d.p_t_given_y * (hi - py) - (1 - d.p_t_given_y) * (py - lo)) < 1e-12
        assert abs(
            d.p_t_given_yprime * (hi - pyp) - (1 - d.p_t_given_yprime) * (pyp - lo)
        ) < 1e-12
        assert -1e-12 <= d.p_t_given_y <= 1 + 1e-12
        assert -1e-12 <= d.p_t_given_yprime <= 1 + 1e-12
        done += 1
    # infeasible orderings must always raise
    for _ in range(1000):
        py, pyp = rng.uniform(0, 1, 2)
        lo = min(py, pyp) + 1e-6 + rng.uniform(0, 0.2)
        hi = max(max(py, pyp), lo) + rng.uniform(0.01, 0.2)
        with pytest.raises(InfeasibleEndpoints):
            decompose_common_cause(py, pyp, lo, min(hi, 2.0) if hi <= 1 else hi)
    assert sw.elapsed_cpu() < 5.0
    report(5, "decomposition identities x10000", sw)


def test_criterion_6_proposition_behavior():
    sw = Stopwatch()
    expected = {
        "fig1_left": {"X"},
        "fig1_right": set(),
        "fig2_model1": {"X", "W"},
    }
    rng = np.random.default_rng(6)
    template_of = {
        "fig1_left": "model1_fig1",
        "fig1_right": "model2_fig1",
        "fig2_model1": "model1_fig2",
    }
    for name, want in expected.items():
        net = load_model(name)
        result = select_sufficient_confounders(net, "Z", "Y", mode="graphical")
        assert set(result.chosen) == want, f"{name}: got {result.chosen}"
        for _ in range(100):
            draw = random_scenario(template_of[name], rng)
            adj = adjusted_estimate(draw, "Z", "Y", result.chosen)
            for level in ("0", "1"):
                truth = interventional_distribution(draw, "Y", {"Z": level})
                assert np.max(np.abs(adj[level].values - truth.values)) < 1e-10
    assert sw.elapsed_cpu() < 30.0
    report(6, "two-stage confounder selection", sw)


def test_criterion_7_models_c_d_double_failure():
    sw = Stopwatch()
    rng = np.random.default_rng(7)
    for template in ("modelC", "modelD"):
        n = 1000
        both_fail = 0
        for _ in range(n):
            net = random_scenario(template, rng)
            adj = adjusted_estimate(net, "Z", "Y", {"X"})
            unadj = unadjusted_estimate(net, "Z", "Y")
            adj_err = unadj_err = 0.0
            for level in ("0", "1"):
                truth = interventional_distribution(net, "Y", {"Z": level})
                adj_err = max(adj_err, float(np.max(np.abs(adj[level].values - truth.values))))
                unadj_err = max(
                    unadj_err, float(np.max(np.abs(unadj[level].values - truth.values)))
                )
            if adj_err > 1e-6 and unadj_err > 1e-6:
                both_fail += 1
        assert both_fail >= 0.95 * n, f"{template}: only {both_fail}/{n} double failures"
    assert sw.elapsed_cpu() < 20.0
    report(7, "Models C/D double failure", sw)


def test_criterion_8_monte_carlo_consistency():
    sw = Stopwatch()
    net = load_model("fig1_left")
    ds1 = forward_sample(net, 10**6, seed=7)
    ds2 = forward_sample(net, 10**6, seed=7)
    assert ds1.to_csv().encode() == ds2.to_csv().encode()
    tv = 0.5 * float(np.abs(empirical_joint(ds1).values - joint(net).values).sum())
    assert tv < 0.01
    assert sw.elapsed_cpu() < 30.0
    report(8, f"Monte Carlo consistency, TV={tv:.4f}", sw)


def test_criterion_9_scan_determinism_and_report():
    sw = Stopwatch()
    # 10x10 grid: covariate-dependence strength x latent-latent link sign
    grid = {
        "x|u=1,w=1": list(np.round(np.linspace(0.05, 0.95, 10), 6)),
        "w|u=1": list(np.round(np.linspace(0.05, 0.95, 10), 6)),
    }
    results = bias_scan("modelD", grid)
    csv = scan_to_csv(results).encode()
    assert scan_to_csv(bias_scan("modelD", grid)).encode() == csv
    # re-pinned when the interventional truth began to contract only the
    # outcome's ancestors: two rows' err_unadj values moved by at most 5.6e-17
    assert hashlib.sha256(csv).hexdigest() == (
        "b467209b53cbb1e3d6db84738ca0e2a454574c25f0d921a2f4025a18aa07b92c"
    )
    assert len(results) == 100
    assert not any(r.failed for r in results)
    summary = scan_summary(results)
    assert "condition wins" in summary
    assert "class=" in summary and "dependence=" in summary
    assert sw.elapsed_cpu() < 60.0
    print("\n--- 10x10 Model D scan summary ---")
    print(summary)
    report(9, "scan determinism and report", sw)
