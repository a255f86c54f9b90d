import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbn import latent
from causalbn.bayesnet import Cpt, DiscreteBayesNet, Variable, joint
from causalbn.errors import (
    DegenerateEndpoints,
    DomainError,
    InfeasibleEndpoints,
    StructureError,
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
from causalbn.modelfile import load_model

from oracles import brute_query, random_net, unscannable_net


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

        monkeypatch.setattr("causalbn.latent.dependence_strength", broken)
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
        "values", [[], [0.5, 1.5], [-0.1], [math.nan], [0.2, math.inf]]
    )
    def test_empty_or_out_of_range_axis_rejected_before_any_cell(self, monkeypatch, values):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("causalbn.latent._scan_cell", no_cell)
        with pytest.raises(ValidationError, match=r"needs values, all in \[0, 1\]"):
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
        ],
        ids=["unknown", "above-one", "nan"],
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

