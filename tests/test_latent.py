import csv
import dataclasses
import hashlib
import io
import itertools
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbn import bayesnet, latent
from causalbn.bayesnet import Cpt, DiscreteBayesNet, Variable, _derive, joint
from causalbn.errors import (
    DegenerateEndpoints,
    DomainError,
    InfeasibleEndpoints,
    SizeCapExceeded,
    StructureError,
    UnknownVariable,
    ValidationError,
    ZeroProbabilityEvidence,
)
from causalbn.graph import Dag, d_separated
from causalbn.latent import (
    TIE_TOL,
    bias_scan,
    classify_interaction,
    correlation_feasible,
    decompose_common_cause,
    dependence_strength,
    scan_parameters,
    scan_summary,
    scan_to_csv,
    third_correlation_interval,
    with_parameters,
)
from causalbn.modelfile import BUNDLED_MODELS, load_model

from oracles import brute_query, random_net, reference_scan_cell, unscannable_net


class TestBuildScenario:
    """``with_parameters`` on a loaded model builds each scan network."""

    def test_model_b_structure(self):
        net = with_parameters(load_model("modelB"), {"u": 0.25})
        assert net.dag.nodes == ("U", "W", "X", "Z", "Y")
        assert d_separated(net.dag, {"W"}, {"Z"})
        assert net.cpts["U"].table.tolist() == [[0.75, 0.25]]

    def test_model_c_structure(self):
        net = with_parameters(load_model("modelC"), {"x|v=1": 0.5})
        assert set(net.dag.edges()) == {("V", "X"), ("V", "Z"), ("V", "Y"), ("Z", "Y")}
        assert net.cpts["X"].table[1].tolist() == [0.5, 0.5]

    def test_degenerate_half(self):
        model = load_model("modelB")
        net = with_parameters(model, {k: 0.5 for k in scan_parameters(model)})
        f = joint(net)
        # every CPT constant at 0.5 makes all pairs independent
        for a in net.dag.nodes:
            for b in net.dag.nodes:
                if a < b:
                    assert dependence_strength(f, a, b) < 1e-12

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError, match="unknown scan parameter 'nope'"):
            with_parameters(load_model("modelB"), {"u": 0.5, "nope": 0.5})

    def test_parameter_range(self):
        for value in (1.5, -0.1, math.nan):
            with pytest.raises(ValidationError, match="outside"):
                with_parameters(load_model("modelB"), {"u": value})

    @pytest.mark.parametrize("value", ["abc", None, [0.5]])
    def test_parameter_that_is_no_number(self, value):
        with pytest.raises(ValidationError, match="parameter 'u' needs a number, not "):
            with_parameters(load_model("modelB"), {"u": value})

    def test_axis_names_and_rows(self):
        assert scan_parameters(load_model("fig2_model2")) == {
            "u": ("U", 0),
            "w|u=0": ("W", 0), "w|u=1": ("W", 1),
            "x|u=0,w=0": ("X", 0), "x|u=0,w=1": ("X", 1),
            "x|u=1,w=0": ("X", 2), "x|u=1,w=1": ("X", 3),
            "z|u=0,x=0": ("Z", 0), "z|u=0,x=1": ("Z", 1),
            "z|u=1,x=0": ("Z", 2), "z|u=1,x=1": ("Z", 3),
            **{
                f"y|w={w},x={x},z={z}": ("Y", i)
                for i, (w, x, z) in enumerate(itertools.product("01", repeat=3))
            },
        }
        # a state label names its row, whatever the spelling
        net = collider_net([[0.7, 0.3]] * 4)
        relabelled = DiscreteBayesNet(
            net.dag,
            {**net.variables, "U": Variable("U", ("lo", "hi"))},
            net.cpts,
        )
        assert list(scan_parameters(relabelled))[2:4] == ["x|u=lo,w=0", "x|u=lo,w=1"]

    def test_only_named_rows_change(self):
        model = load_model("modelD")
        net = with_parameters(model, {"x|u=1,w=0": 0.25, "w|u=1": 1.0})
        for node in model.dag.nodes:
            want = model.cpts[node].table.copy()
            if node == "X":
                want[2] = [0.75, 0.25]
            if node == "W":
                want[1] = [0.0, 1.0]
            assert np.array_equal(net.cpts[node].table, want)
        # the loaded model is shared, so it must not change
        assert model.cpts["X"].table[2].tolist() == [0.4, 0.6]

    def test_non_binary_row_refused(self):
        dag = Dag(("A", "B"), {"A": (), "B": ("A",)})
        net = DiscreteBayesNet(
            dag,
            {"A": Variable("A", ("0", "1")), "B": Variable("B", ("0", "1", "2"))},
            {"A": Cpt("A", (), [[0.5, 0.5]]), "B": Cpt("B", ("A",), [[0.2, 0.3, 0.5]] * 2)},
        )
        assert with_parameters(net, {"a": 0.25}).cpts["A"].table.tolist() == [[0.75, 0.25]]
        with pytest.raises(ValidationError, match="binary"):
            with_parameters(net, {"b|a=1": 0.5})

    def test_template_aliases_are_the_bundled_models(self):
        # the former template API, kept for the benchmark's scan workload
        from causalbn import ScenarioParams, build_scenario, latent

        files = {
            "model1_fig1": "fig1_left", "model2_fig1": "fig1_right",
            "model1_fig2": "fig2_model1", "modelA": "modelA_observed",
            "modelB": "modelB", "modelC": "modelC", "modelD": "modelD",
        }
        assert list(latent.TEMPLATES) == list(latent.DEFAULT_PARAMS) == list(files)
        for name, model in files.items():
            net = build_scenario(ScenarioParams(name, latent.DEFAULT_PARAMS[name]))
            want = load_model(model)
            tpl = latent.TEMPLATES[name]
            assert tpl.nodes == want.dag.nodes == net.dag.nodes
            assert dict(tpl.parents) == dict(want.dag.parents)
            assert tpl.param_keys() == list(scan_parameters(want))
            for node in want.dag.nodes:
                assert np.array_equal(net.cpts[node].table, want.cpts[node].table)
        assert latent.TEMPLATES["modelD"].param_keys() == [
            "u", "w|u=0", "w|u=1",
            "x|u=0,w=0", "x|u=0,w=1", "x|u=1,w=0", "x|u=1,w=1",
            "z|u=0", "z|u=1",
            "y|z=0,w=0", "y|z=0,w=1", "y|z=1,w=0", "y|z=1,w=1",
        ]
        grid = {"u": [0.2, 0.5], "w|u=1": [0.3, 0.9]}
        base = {"z|u=0": 0.4}
        by_name = latent.bias_scan("modelD", grid, base_params=base)
        by_net = latent.bias_scan(load_model("modelD"), grid, base_params=base)
        assert scan_to_csv(by_name) == scan_to_csv(by_net)


class TestDecompose:
    def test_worked_example(self):
        d = decompose_common_cause(0.3, 0.6, 0.1, 0.8)
        assert d.p_t_given_y == pytest.approx(2 / 7, abs=1e-12)
        assert d.p_t_given_yprime == pytest.approx(5 / 7, abs=1e-12)
        # dissection ratio: (p(x|y)-lo)/(hi-p(x|y)) == p(t|y)/p(t'|y)
        assert (0.3 - 0.1) / (0.8 - 0.3) == pytest.approx(
            d.p_t_given_y / (1 - d.p_t_given_y), abs=1e-12
        )

    def test_symmetric_inputs(self):
        d = decompose_common_cause(0.5, 0.5, 0.2, 0.8)
        assert d.p_t_given_y == pytest.approx(0.5, abs=1e-12)
        assert d.p_t_given_yprime == pytest.approx(0.5, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleEndpoints):
            decompose_common_cause(0.3, 0.6, 0.4, 0.8)

    def test_degenerate(self):
        with pytest.raises(DegenerateEndpoints):
            decompose_common_cause(0.3, 0.6, 0.5, 0.5)

    def test_default_margin_endpoints(self):
        d = decompose_common_cause(0.3, 0.6)
        assert d.p_x_given_tprime == pytest.approx(0.25, abs=1e-12)
        assert d.p_x_given_t == pytest.approx(0.65, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            decompose_common_cause(1.3, 0.6, 0.1, 0.8)

    def test_identities_random(self):
        rng = np.random.default_rng(61)
        for _ in range(2000):
            py, pyp = rng.uniform(0, 1, 2)
            lo = rng.uniform(0, min(py, pyp))
            hi = rng.uniform(max(py, pyp), 1)
            if hi - lo < 1e-9:
                continue
            d = decompose_common_cause(py, pyp, lo, hi)
            for w in (d.p_t_given_y, d.p_t_given_yprime):
                assert -1e-12 <= w <= 1 + 1e-12
            recon_y = (1 - d.p_t_given_y) * lo + d.p_t_given_y * hi
            recon_yp = (1 - d.p_t_given_yprime) * lo + d.p_t_given_yprime * hi
            assert abs(recon_y - py) < 1e-12
            assert abs(recon_yp - pyp) < 1e-12


class TestCorrelationBound:
    def test_paper_values(self):
        lo, hi = third_correlation_interval(0.8, 0.7)
        assert lo == pytest.approx(0.56 - math.sqrt(0.1836), abs=1e-12)
        assert hi == pytest.approx(0.56 + math.sqrt(0.1836), abs=1e-12)
        assert lo > 0  # zero correlation excluded

    def test_unconstrained(self):
        assert third_correlation_interval(0.0, 0.0) == (-1.0, 1.0)

    def test_perfect(self):
        lo, hi = third_correlation_interval(1.0, 0.0)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(0.0, abs=1e-15)

    def test_feasibility_examples(self):
        assert not correlation_feasible(0.0, 0.8, 0.7)
        assert correlation_feasible(0.56, 0.8, 0.7)
        assert correlation_feasible(0.0, 0.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            third_correlation_interval(1.2, 0.0)
        with pytest.raises(DomainError):
            correlation_feasible(0.0, -1.5, 0.0)

    def test_endpoints_tight_and_psd_oracle(self):
        # brute-force PSD check on a 0.01 grid
        for r_ac in np.linspace(-1.0, 1.0, 201):
            for r_bc in np.linspace(-1.0, 1.0, 41):
                lo, hi = third_correlation_interval(r_ac, r_bc)
                for edge in (lo, hi):
                    bound = r_ac**2 + r_bc**2 + edge**2 - 1 - 2 * edge * r_ac * r_bc
                    assert bound <= 1e-12
                mid = (lo + hi) / 2
                for r_ab, want in ((mid, True), (lo, True), (hi, True)):
                    m = np.array(
                        [[1, r_ab, r_ac], [r_ab, 1, r_bc], [r_ac, r_bc, 1]]
                    )
                    det = np.linalg.det(m)
                    assert (det >= -1e-12) == want
                    assert correlation_feasible(r_ab, r_ac, r_bc) == want
                if hi < 1.0:
                    outside = hi + 0.01
                    if outside <= 1.0:
                        assert not correlation_feasible(outside, r_ac, r_bc)


def collider_net(table_x, p_u=0.5, p_w=0.5, w_parents=()):
    nodes = ("U", "W", "X")
    parents = {"U": (), "W": tuple(w_parents), "X": ("U", "W")}
    w_cpt = (
        Cpt("W", ("U",), [[1 - p_w[0], p_w[0]], [1 - p_w[1], p_w[1]]])
        if w_parents
        else Cpt("W", (), [[1 - p_w, p_w]])
    )
    return DiscreteBayesNet(
        Dag(nodes, parents),
        {n: Variable(n, ("0", "1")) for n in nodes},
        {
            "U": Cpt("U", (), [[1 - p_u, p_u]]),
            "W": w_cpt,
            "X": Cpt("X", ("U", "W"), table_x),
        },
    )


class TestClassifyInteraction:
    def test_noisy_or_explaining_away(self):
        # leak 0.05, weights 0.8/0.8
        def p1(u, w):
            return 1 - (1 - 0.05) * (0.2**u) * (0.2**w)

        table = [[1 - p1(u, w), p1(u, w)] for u in (0, 1) for w in (0, 1)]
        net = collider_net(table)
        assert classify_interaction(net, "U", "W", "X") == "explaining_away"

    def test_monotonic_with_positive_link(self):
        def p1(u, w):
            return 0.2 + 0.3 * u + 0.3 * w

        table = [[1 - p1(u, w), p1(u, w)] for u in (0, 1) for w in (0, 1)]
        net = collider_net(table, p_w=(0.3, 0.8), w_parents=("U",))
        assert classify_interaction(net, "U", "W", "X") == "monotonic"

    def test_constant_in_u_is_none(self):
        table = [[0.7, 0.3], [0.4, 0.6], [0.7, 0.3], [0.4, 0.6]]
        net = collider_net(table)
        assert classify_interaction(net, "U", "W", "X") == "none"

    def test_structure_error(self):
        net = collider_net([[0.5, 0.5]] * 4)
        with pytest.raises(StructureError):
            classify_interaction(net, "U", "X", "W")

    @pytest.mark.parametrize("u, w", [("U", "U"), ("W", "W")])
    def test_one_parent_twice_is_a_structure_error(self, u, w):
        net = collider_net([[0.5, 0.5]] * 4)
        with pytest.raises(StructureError, match="two distinct parents of 'X'"):
            classify_interaction(net, u, w, "X")


class TestConditionalReaders:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_dependence_strength_matches_brute_query(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(2, 7)))
        a, b = (str(v) for v in rng.choice(net.dag.nodes, size=2, replace=False))
        p_a = brute_query(net, [a], {})
        expected = max(
            abs(brute_query(net, [a], {b: sb})[(sa,)] - p_a[(sa,)])
            for sb in net.variables[b].states
            for sa in net.variables[a].states
        )
        assert abs(dependence_strength(joint(net), a, b) - expected) < 1e-12

    def test_dependence_on_itself_is_a_validation_error(self):
        f = joint(collider_net([[0.5, 0.5]] * 4))
        with pytest.raises(ValidationError, match="a 'X', b 'X' must be distinct"):
            dependence_strength(f, "X", "X")

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_classify_interaction_matches_brute_posteriors(self, seed):
        # binary nets with CPT zeros, so some collider posteriors are undefined
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(3, 7)), max_card=2, zero_frac=0.2)
        for x in net.dag.nodes:
            for u, w in itertools.permutations(net.dag.parents[x], 2):
                try:
                    post = [brute_query(net, [w], {x: "1", u: s})[("1",)] for s in "01"]
                except ZeroDivisionError:
                    with pytest.raises(ZeroProbabilityEvidence):
                        classify_interaction(net, u, w, x)
                    continue
                delta = post[1] - post[0]
                expected = (
                    "explaining_away" if delta < -TIE_TOL
                    else "monotonic" if delta > TIE_TOL
                    else "none"
                )
                assert classify_interaction(net, u, w, x) == expected

    def test_zero_probability_state_raises(self):
        # u = 1 never happens
        net = collider_net([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8], [0.1, 0.9]], p_u=0.0)
        with pytest.raises(ZeroProbabilityEvidence):
            dependence_strength(joint(net), "X", "U")
        with pytest.raises(ZeroProbabilityEvidence):
            classify_interaction(net, "U", "W", "X")
        # the other direction conditions on X, whose states both occur
        assert dependence_strength(joint(net), "U", "X") == 0.0


class TestBiasScan:
    def test_model_b_unadjusted_exact(self):
        grid = {"z|u=1": [0.5, 0.7, 0.9], "x|u=1,w=1": [0.6, 0.9]}
        results = bias_scan(load_model("modelB"), grid)
        assert len(results) == 6
        for r in results:
            assert r.err_unadjusted_ace < 1e-12
            assert all(v < 1e-12 for v in r.err_unadjusted.values())
            assert r.winner in ("ignore", "tie")

    def test_independent_covariate_all_ties(self):
        # X's CPT constant in (U, W): no dependence, no bias either way
        net = load_model("modelB")
        base = {k: 0.5 for k in scan_parameters(net) if k.startswith("x|")}
        results = bias_scan(net, {"z|u=1": [0.4, 0.8]}, base_params=base)
        for r in results:
            assert r.winner == "tie"
            assert r.err_adjusted_ace < 1e-12
            assert r.dep_zx < 1e-12

    def test_model_c_and_d_double_failure_cells(self):
        for model in ("modelC", "modelD"):
            key = "x|v=1" if model == "modelC" else "x|u=1,w=1"
            results = bias_scan(load_model(model), {key: [0.7, 0.9]})
            assert any(
                max(r.err_adjusted.values()) > 1e-6
                and max(r.err_unadjusted.values()) > 1e-6
                for r in results
                if r.winner != "failed"
            )

    def test_row_major_order_and_grid_columns(self):
        results = bias_scan(load_model("modelB"), {"u": [0.2, 0.8], "w": [0.3, 0.6]})
        points = [tuple(r.grid_point[k] for k in sorted(r.grid_point)) for r in results]
        assert points == [(0.2, 0.3), (0.2, 0.6), (0.8, 0.3), (0.8, 0.6)]

    def test_repeated_scans_identical_and_pinned(self):
        grid = {"u": [0.2, 0.5, 0.8], "w|u=1": [0.3, 0.6, 0.9]}
        first = scan_to_csv(bias_scan(load_model("modelD"), grid)).encode()
        assert scan_to_csv(bias_scan(load_model("modelD"), grid)).encode() == first
        assert hashlib.sha256(first).hexdigest() == (
            "6db4dfe0a6c7814d0fd7afa35c32c071d8f533a7f36c2390e36ac6540a81e7ea"
        )

    @pytest.mark.parametrize(
        "model, grid, base, digest, errors",
        [
            # a covariate with one parent, so every class is "none"
            (
                "modelC", {"x|v=1": [0.1, 0.5, 0.9], "z|v=0": [0.0, 0.3, 1.0]},
                {"y|z=1,v=1": 0.35},
                "bee4482aa6a2706b7dd4945de30bce4e00f3820ce3e7e64289b846ba5c9611fb", [],
            ),
            # a root covariate, and Z = 1 whenever X = 1 at z|x=1 = 1
            (
                "fig1_left", {"x": [0.0, 0.25, 0.8], "z|x=1": [0.1, 0.6, 1.0]}, {},
                "f098e26e9f609b0e0563e8e5163d56663a4567d0040acf9556b0fe8cce6b16e8",
                ["p(Z=0, {'X': '1'}) = 0 while p({'X': '1'}) > 0"] * 2,
            ),
            (
                "modelB", {"z|u=0": [0.0, 0.5, 1.0], "z|u=1": [0.0, 0.5, 1.0]}, {},
                "66d01753dd8452f048eb8802a9ef061f6e77327db5aa4a1d5d730742f29d5d2b",
                ["p(Z=1) = 0; conditional undefined", "p(Z=0) = 0; conditional undefined"],
            ),
        ],
        ids=["modelC", "fig1_left", "modelB-failing"],
    )
    def test_scan_bytes_pinned(self, model, grid, base, digest, errors):
        results = bias_scan(load_model(model), grid, base_params=base)
        text = scan_to_csv(results) + scan_summary(results)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert [r.error for r in results if r.error is not None] == errors

    def test_axes_are_named_once_per_scan(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return scan_parameters(net)

        monkeypatch.setattr(latent, "scan_parameters", counting)
        grid = {"u": [0.2, 0.5, 0.8], "w|u=1": [0.3, 0.6, 0.9]}
        results = bias_scan(load_model("modelD"), grid, base_params={"x|u=0,w=0": 0.4})
        assert len(results) == 9 and len(calls) == 1
        # the public form names the axes itself, on every call
        with_parameters(load_model("modelD"), {"u": 0.5})
        assert len(calls) == 2

    def test_failed_cell_marked_and_scan_continues(self):
        # z|u=0 = z|u=1 = 0 makes p(Z=1) = 0, so the plain conditional is
        # undefined in that cell alone
        grid = {"z|u=0": [0.0, 0.5], "z|u=1": [0.0, 0.5]}
        results = bias_scan(load_model("modelB"), grid, base_params={"x|u=0,w=0": 0.0})
        assert [r.winner == "failed" for r in results] == [True, False, False, False]
        failed = results[0]
        assert failed.grid_point == {"z|u=0": 0.0, "z|u=1": 0.0}
        assert failed.error == "p(Z=1) = 0; conditional undefined"
        assert scan_summary(results).startswith("cells: 4 (1 failed)\n")
        header, row = scan_to_csv(results).splitlines()[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["winner"] == "failed"
        err_columns = [k for k in fields if k.startswith("err_")]
        assert len(err_columns) == 6
        assert all(fields[k] == "nan" for k in err_columns)

    def test_unmodelled_cell_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug in a cell")

        monkeypatch.setattr("causalbn.latent._dependence", broken)
        with pytest.raises(TypeError, match="bug in a cell"):
            bias_scan(load_model("modelB"), {"u": [0.25]})

    @pytest.mark.parametrize(
        "roles", [("Z", "Y", "Q"), ("Z", "Y", "Z"), ("Z", "Z", "X"), ("Q", "Y", "X")]
    )
    def test_roles_must_be_distinct_template_nodes(self, monkeypatch, roles):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("causalbn.latent._scan_cell", no_cell)
        treatment, outcome, covariate = roles
        with pytest.raises(ValidationError, match="three distinct nodes"):
            bias_scan(
                load_model("modelD"), {"u": [0.2, 0.3]},
                treatment=treatment, outcome=outcome, covariate=covariate,
            )

    @pytest.mark.parametrize(
        "values",
        [
            [], [0.5, 1.5], [-0.1], [math.nan], [0.2, math.inf], ["x"], [0.3, None], 0.5, None,
            # text is neither a sequence of numbers nor a number, nor is a bool
            pytest.param("1", id="text"),
            pytest.param("0.5", id="text-fraction"),
            pytest.param(b"1", id="bytes"),
            pytest.param(["0.5"], id="text-entry"),
            pytest.param([True], id="bool-entry"),
            pytest.param([0.5, np.False_], id="numpy-bool-entry"),
        ],
    )
    def test_empty_or_out_of_range_axis_rejected_before_any_cell(self, monkeypatch, values):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("causalbn.latent._scan_cell", no_cell)
        with pytest.raises(ValidationError, match=r"'u' needs values, all in \[0, 1\]"):
            bias_scan(load_model("modelD"), {"w|u=1": [0.3], "u": values})

    def test_unknown_grid_parameter(self):
        with pytest.raises(ValidationError):
            bias_scan(load_model("modelB"), {"nope": [0.5]})

    def test_csv_format(self):
        results = bias_scan(load_model("modelB"), {"u": [0.25]})
        text = scan_to_csv(results)
        lines = text.split("\n")
        assert lines[0] == (
            "u,dep_zx,dep_xy,interaction_class,err_adj_z0,err_adj_z1,"
            "err_unadj_z0,err_unadj_z1,err_adj_ace,err_unadj_ace,winner"
        )
        assert lines[1].startswith("0.25,")
        assert text.endswith("\n")

    def test_csv_reads_back(self):
        """An axis name that holds a comma is quoted, so ``csv.reader``
        reads the header and every row as written."""
        grid = {"x|u=1,w=1": [0.3, 0.7], "w|u=1": [0.4]}
        text = scan_to_csv(bias_scan(load_model("modelD"), grid))
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert header[:3] == ["w|u=1", "x|u=1,w=1", "dep_zx"] and len(header) == 12
        assert [r[:2] for r in rows] == [["0.4", "0.3"], ["0.4", "0.7"]]
        assert all(len(r) == len(header) for r in rows)
        assert text.startswith('w|u=1,"x|u=1,w=1",dep_zx,')

    def test_summary_mentions_classes(self):
        results = bias_scan(load_model("modelD"), {"u": [0.2, 0.8], "w|u=1": [0.3, 0.9]})
        text = scan_summary(results)
        assert "cells: 4" in text
        assert "condition wins" in text

    @pytest.mark.parametrize(
        "base, message",
        [
            ({"nope": 0.5}, "unknown scan parameter 'nope'"),
            ({"u": 1.5}, "outside"),
            ({"u": math.nan}, "outside"),
            ({"u": "abc"}, "parameter 'u' needs a number, not 'abc'"),
            ({"u": None}, "parameter 'u' needs a number, not None"),
            ({"u": "0.25"}, "parameter 'u' needs a number, not '0.25'"),
            ({"u": b"1"}, "parameter 'u' needs a number, not b'1'"),
            ({"u": True}, "parameter 'u' needs a number, not True"),
        ],
        ids=["unknown", "above-one", "nan", "text", "none", "numeric-text", "bytes", "bool"],
    )
    def test_bad_base_params_refused_before_any_cell(self, monkeypatch, base, message):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("causalbn.latent._scan_cell", no_cell)
        with pytest.raises(ValidationError, match=message):
            bias_scan(load_model("modelB"), {"z|u=1": [0.4, 0.8]}, base_params=base)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"X": ("0", "1", "2")}, "states"),
            ({"U": ("a", "b")}, "states"),
            ({"U": ("1", "0")}, "states"),
            ("X and x", "names two CPT rows"),
        ],
        ids=["three-states", "relabelled", "reordered", "colliding-axes"],
    )
    def test_unscannable_network_refused_before_any_cell(self, monkeypatch, change, message):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("causalbn.latent._scan_cell", no_cell)
        with pytest.raises(ValidationError, match=message):
            bias_scan(unscannable_net(change), {"z|u=1": [0.4]})



def _exact(value):
    """``value`` with each float as its 8 bytes, so that ``==`` compares
    floats bit for bit, NaN and the sign of 0 included."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    return value


def _edge_grid(net, treatment, covariate):
    """Every row of the treatment at 0, 0.5 and 1 (at 0 and 1 past two
    rows), and the first row of the covariate's first parent, or of the
    covariate when it is a root, at 0, 0.5 and 1."""
    axes = scan_parameters(net)
    rows = [a for a, (node, _) in axes.items() if node == treatment]
    grid = {a: [0.0, 0.5, 1.0] if len(rows) <= 2 else [0.0, 1.0] for a in rows}
    other = (*net.dag.parents[covariate], covariate)[0]
    grid[next(a for a, (node, _) in axes.items() if node == other)] = [0.0, 0.5, 1.0]
    return grid


class TestScanMatchesTheReferenceCell:
    """``bias_scan`` resolves its requests once and runs only array
    arithmetic per cell; each cell equals ``oracles.reference_scan_cell``,
    the path through the public functions, field by field: floats bit for
    bit, the winner, the class and the error."""

    def _errors(self, net, grid, roles, base_params=None):
        results = bias_scan(net, grid, *roles, base_params=base_params)
        base = with_parameters(net, base_params or {})
        names = sorted(grid)
        points = [dict(zip(names, v)) for v in itertools.product(*(grid[a] for a in names))]
        assert len(results) == len(points)
        for got, point in zip(results, points):
            want = reference_scan_cell(base, point, *roles)
            fields = [f.name for f in dataclasses.fields(got)]
            assert {f: _exact(getattr(got, f)) for f in fields} == {
                f: _exact(getattr(want, f)) for f in fields
            }, point
        return [r.error for r in results if r.error is not None]

    def test_bundled_models(self):
        errors = []
        for name in BUNDLED_MODELS:
            net = load_model(name)
            errors += self._errors(net, _edge_grid(net, "Z", "X"), ("Z", "Y", "X"))
        # p(Z) = 0, positivity and zero-posterior cells all fail
        for kind in ("; conditional undefined", ") = 0 while p(", "has probability 0 given"):
            assert any(kind in e for e in errors), kind

    @pytest.mark.parametrize("seed", range(16))
    def test_random_binary_networks(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(4, 8)), max_card=2, zero_frac=0.2)
        roles = tuple(str(n) for n in rng.choice(net.dag.nodes, size=3, replace=False))
        axes = list(scan_parameters(net))
        picks = rng.choice(len(axes), size=3, replace=False)
        grid = {axes[i]: [0.0, 0.5, 1.0] for i in picks[:2]}
        self._errors(net, grid, roles, base_params={axes[picks[2]]: float(rng.uniform())})


def _built_in_full(net, values):
    """``with_parameters(net, values)`` built and validated in full."""
    axes = scan_parameters(net)
    tables = {n: net.cpts[n].table.copy() for n in net.dag.nodes}
    for name, p in values.items():
        node, row = axes[name]
        tables[node][row] = (1.0 - p, p)
    cpts = {n: Cpt(n, net.dag.parents[n], t) for n, t in tables.items()}
    return DiscreteBayesNet(net.dag, net.variables, cpts)


def _derivable_nets():
    for name in BUNDLED_MODELS:
        yield name, load_model(name)
    for seed in range(6):
        yield f"random-{seed}", random_net(np.random.default_rng(seed), 7, max_card=2)


class TestDerivedNetwork:
    """``with_parameters`` derives its network from ``net``: it checks the
    changed CPTs only and shares everything else."""

    @pytest.mark.parametrize("name, net", list(_derivable_nets()), ids=lambda v: str(v))
    def test_same_tables_and_joints_as_a_full_build(self, name, net):
        rng = np.random.default_rng(len(name))
        binary = [a for a, (node, _) in scan_parameters(net).items() if net.card(node) == 2]
        picks = rng.choice(len(binary), size=min(3, len(binary)), replace=False)
        values = {binary[i]: float(rng.uniform()) for i in picks}
        derived, full = with_parameters(net, values), _built_in_full(net, values)
        for n in net.dag.nodes:
            assert np.array_equal(derived.cpts[n].table, full.cpts[n].table)
            assert derived.cpts[n].parents == full.cpts[n].parents
            assert np.array_equal(derived._cubes[n], full._cubes[n])
            assert derived._cubes[n].shape == full._cubes[n].shape
            assert not derived.cpts[n].table.flags.writeable
            assert not derived._cubes[n].flags.writeable
        assert np.array_equal(joint(derived).values, joint(full).values)
        # a contraction with do and evidence on two networks derived alike
        first, *middle, last = net.dag.nodes
        do, evidence = {first: net.states(first)[1]}, {middle[0]: net.states(middle[0])[0]}
        for _ in range(2):
            got = joint(with_parameters(net, values), do, keep=[last], evidence=evidence)
            assert np.array_equal(got.values, joint(full, do, keep=[last], evidence=evidence).values)

    def test_shares_the_parts_it_leaves_alone(self):
        base = load_model("modelD")
        derived = with_parameters(base, {"x|u=1,w=0": 0.3})
        assert derived.dag is base.dag
        assert derived.variables is base.variables
        assert derived._card is base._card
        assert derived._all_names is base._all_names
        for n in base.dag.nodes:
            if n != "X":
                assert derived.cpts[n] is base.cpts[n]
                assert derived._cubes[n] is base._cubes[n]
        assert derived._cubes["X"] is not base._cubes["X"]
        assert len(derived._tables) == 0

    @pytest.mark.parametrize(
        "row", [[math.nan, 0.5], [0.5, 0.6], [-0.25, 1.25]], ids=["nan", "row-sum", "negative"]
    )
    def test_a_bad_table_raises_the_full_builds_error(self, row):
        base = load_model("modelD")
        bad = {}
        for node in ("Y", "X"):  # X is declared first, so its error wins
            table = base.cpts[node].table.copy()
            table[1] = row
            bad[node] = table
        with pytest.raises(ValidationError) as full:
            cpts = {**base.cpts, **{n: Cpt(n, base.dag.parents[n], t) for n, t in bad.items()}}
            DiscreteBayesNet(base.dag, base.variables, cpts)
        with pytest.raises(ValidationError) as derived:
            _derive(base, {n: t.copy() for n, t in bad.items()})
        assert str(derived.value) == str(full.value)
        assert "'X'" in str(derived.value)

    def test_two_axes_on_one_node_copy_its_table_once(self):
        class CountingTable(np.ndarray):
            copies = 0

            def copy(self, *args, **kwargs):
                CountingTable.copies += 1
                return super().copy(*args, **kwargs)

        base = load_model("modelD")
        # a derived network keeps the table it is given, so X's is a CountingTable
        counted = _derive(base, {"X": base.cpts["X"].table.copy().view(CountingTable)})
        derived = with_parameters(counted, {"x|u=1,w=0": 0.3, "x|u=1,w=1": 0.6, "u": 0.2})
        assert CountingTable.copies == 1
        assert derived.cpts["X"].table[2:].tolist() == [[0.7, 0.3], [0.4, 0.6]]


class TestResolvedRequests:
    """A request is resolved on a network in one step (``bayesnet._resolve``)
    and holds no CPT, so it executes on every network derived from that
    one; a scan resolves its own three requests once, on its base."""

    @pytest.mark.parametrize("shape", [(1,), (3, 3), (7, 7)], ids=["1", "9", "49"])
    def test_a_scan_resolves_its_requests_once(self, monkeypatch, shape):
        derived, resolved = [], []
        derive, resolve = latent._derive, latent._resolve

        def recording_derive(net, tables):
            derived.append(derive(net, tables))
            return derived[-1]

        def counting_resolve(*args):
            resolved.append(args)
            return resolve(*args)

        monkeypatch.setattr(latent, "_derive", recording_derive)
        monkeypatch.setattr(latent, "_resolve", counting_resolve)
        axes = ["w|u=1", "x|u=1,w=1"]
        grid = {a: list(np.linspace(0.1, 0.9, n)) for a, n in zip(axes, shape)}
        results = bias_scan(load_model("modelD"), grid)
        cells = derived[1:]
        assert len(cells) == len(results) == math.prod(shape)
        # both truth tables and the adjusted table, whatever the cell count
        assert len(resolved) == 3
        # and each cell keeps only its full joint, which it reads through ``joint``
        for cell in cells:
            assert [key[1:] for key in cell._tables] == [
                (bayesnet.DEFAULT_SIZE_CAP, cell._all_names, (), ())
            ]

    def test_a_request_holds_names_ints_slices_and_point_masses(self):
        net = with_parameters(load_model("modelD"), {"u": 0.3})
        do, evidence = (("W", "1"), ("Z", "0")), (("X", "0"),)
        for keep in [("Y",), ("W", "Y"), net._all_names]:
            request = bayesnet._resolve(net, keep, do, evidence)
            for n, index, mass, labels in request.operands:
                assert n in net.variables
                assert all(type(i) is int or i == slice(None) for i in index)
                assert all(type(label) is int for label in labels)
                if n in dict(do):
                    # a point mass, sliced where the node is fixed, never a cube
                    assert set(np.ravel(mass)) <= {0.0, 1.0}
                else:
                    assert mass is None
            assert type(request.count) is int and type(request.width) is int
            assert set(request.out) <= set(net.variables)
            assert all(type(label) is int for label in request.out_labels)

    def test_bad_states_raise_on_every_call(self):
        net = with_parameters(load_model("modelD"), {"u": 0.3})
        do, evidence = {"Z": "1"}, {"X": "0"}
        joint(net, do, keep=["Y"], evidence=evidence)
        cases = [({"Z": "2"}, evidence, ["Y"]), (do, {"X": "2"}, ["Y"]), (do, evidence, ["Q"])]
        for bad_do, bad_evidence, keep in cases:
            for _ in range(2):
                with pytest.raises(UnknownVariable):
                    joint(net, bad_do, keep=keep, evidence=bad_evidence)
                with pytest.raises(UnknownVariable):
                    joint(with_parameters(net, {"u": 0.4}), bad_do, keep=keep, evidence=bad_evidence)

    def test_the_size_cap_is_checked_on_every_execution(self, monkeypatch):
        base = with_parameters(load_model("modelD"), {"u": 0.3})
        request = bayesnet._resolve(base, ("Y",), (("Z", "1"),), (("X", "0"),))
        cells = [with_parameters(base, {"u": p}) for p in (0.2, 0.6)]
        want = [bayesnet._execute(cell, request) for cell in cells]
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", request.count - 1)
        for cell in [base, *cells, base]:
            with pytest.raises(SizeCapExceeded):
                bayesnet._execute(cell, request)
            with pytest.raises(SizeCapExceeded):
                joint(cell, {"Z": "1"}, keep=["Y"], evidence={"X": "0"})
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", request.count)
        for cell, values in zip(cells, want):
            assert np.array_equal(bayesnet._execute(cell, request), values)

    def test_threads_contracting_at_once_give_the_serial_answers(self):
        base = with_parameters(load_model("modelD"), {})
        shapes = [
            ({}, ["Y"], {}),
            ({"Z": "1"}, ["Y"], {}),
            ({"Z": "0"}, ["Y", "X"], {"U": "1"}),
            ({}, ["Z"], {"X": "1", "W": "0"}),
        ]
        points = [0.1 * i for i in range(1, 10)]
        expected = {
            (p, i): joint(_built_in_full(base, {"u": p}), do, keep=keep, evidence=ev).values
            for p in points
            for i, (do, keep, ev) in enumerate(shapes)
        }
        start = threading.Barrier(8)
        errors = []

        def work():
            try:
                start.wait()
                for p in points:
                    cell = with_parameters(base, {"u": p})
                    for i, (do, keep, ev) in enumerate(shapes):
                        got = joint(cell, do, keep=keep, evidence=ev).values
                        assert np.array_equal(got, expected[p, i]), (p, i)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
