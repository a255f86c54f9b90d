import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbn import intervention, latent
from causalbn.bayesnet import Cpt, DiscreteBayesNet, Factor, Variable, joint, query
from causalbn.errors import PositivityViolation, SizeCapExceeded, UnknownVariable
from causalbn.graph import Dag, backdoor_admissible
from causalbn.intervention import (
    SELECTION_TOL,
    _conditional_equal,
    ace,
    adjusted_estimate,
    conditioning_bias,
    effect_report,
    interventional_distribution,
    select_sufficient_confounders,
    unadjusted_estimate,
)
from causalbn.latent import scan_parameters, with_parameters
from causalbn.modelfile import load_model

import oracles
from oracles import (
    brute_do,
    brute_query,
    brute_truncated_joint,
    random_cpts,
    random_net,
    select_distributional,
)


def random_scenario(model, rng, lo=0.05, hi=0.95):
    """``model`` with every CPT row redrawn, one uniform per scan axis in order."""
    net = load_model(model)
    return with_parameters(net, {k: float(rng.uniform(lo, hi)) for k in scan_parameters(net)})


def ace_gap(rep):
    """ACE of the adjusted estimate minus ACE of the unadjusted one."""
    return (rep.adjusted[-1] - rep.adjusted[0]) - (rep.unadjusted[-1] - rep.unadjusted[0])


class TestInterventionalDistribution:
    def test_fig1_left(self):
        net = load_model("fig1_left")
        d = interventional_distribution(net, "Y", {"Z": "1"})
        assert d.prob({"Y": "1"}) == pytest.approx(0.75, abs=1e-12)

    def test_fig1_right_equals_conditional(self):
        net = load_model("fig1_right")
        for level in ("0", "1"):
            d = interventional_distribution(net, "Y", {"Z": level})
            c = query(net, ["Y"], {"Z": level})
            assert np.max(np.abs(d.values - c.values)) < 1e-12

    def test_model_b_do_equals_conditional(self):
        net = load_model("modelB")
        for level in ("0", "1"):
            d = interventional_distribution(net, "Y", {"Z": level})
            c = query(net, ["Y"], {"Z": level})
            assert np.max(np.abs(d.values - c.values)) < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for model in ("modelB", "modelC", "modelD", "fig2_model1"):
            for _ in range(20):
                net = random_scenario(model, rng)
                for level in ("0", "1"):
                    got = interventional_distribution(net, "Y", {"Z": level})
                    want = brute_do(net, "Y", {"Z": level})
                    for state, p in want.items():
                        assert abs(got.prob({"Y": state}) - p) < 1e-12
        # a do on two nodes, one of them 3-state, on random CPTs
        dag = Dag.from_edges(
            ("A", "B", "C", "D", "E"),
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "E"), ("A", "E")],
        )
        cards = {"A": 3, "B": 2, "C": 3, "D": 2, "E": 3}
        for _ in range(10):
            net = random_cpts(dag, rng, cards)
            do = {"C": "2", "B": "0"}
            got = joint(net, do=do)
            for cfg, p in brute_truncated_joint(net, do).items():
                assert abs(got.prob(dict(zip(dag.nodes, cfg))) - p) < 1e-15
            for target in ("A", "D", "E"):
                dist = interventional_distribution(net, target, do)
                for state, p in brute_do(net, target, do).items():
                    assert abs(dist.prob({target: state}) - p) < 1e-12

    def test_intervened_target_raises_value_error(self):
        # a known defect, pinned by the benchmark's query workload as
        # ``do_target_intervened``: the message and type stay until the
        # benchmark and this check move to a ValidationError together
        with pytest.raises(ValueError, match="^target cannot be intervened on$"):
            interventional_distribution(load_model("fig1_left"), "Y", {"Y": "1"})

    @pytest.mark.parametrize(
        "target, do, message",
        [
            ("Q", {"Z": "1"}, "unknown variable 'Q'"),
            ("Y", {"Q": "1"}, "unknown variable 'Q'"),
            ("Y", {"Z": "9"}, "'9' is not a state of 'Z'"),
        ],
        ids=["target", "do-name", "do-state"],
    )
    def test_unknown_name_or_state(self, target, do, message):
        with pytest.raises(UnknownVariable) as info:
            interventional_distribution(load_model("fig1_left"), target, do)
        assert str(info.value) == message

    def test_parentless_do_equals_conditioning(self):
        # intervening on a root node is the same as observing it
        rng = np.random.default_rng(37)
        dag = Dag.from_edges(("A", "B", "C"), [("A", "B"), ("A", "C"), ("B", "C")])
        for _ in range(50):
            net = random_cpts(dag, rng)
            d = interventional_distribution(net, "C", {"A": "1"})
            c = query(net, ["C"], {"A": "1"})
            assert np.max(np.abs(d.values - c.values)) < 1e-12


class TestAce:
    def test_fig1_left(self):
        assert ace(load_model("fig1_left"), "Z", "Y") == pytest.approx(0.45, abs=1e-12)

    def test_model_b_example(self):
        assert ace(load_model("modelB"), "Z", "Y") == pytest.approx(0.32, abs=1e-12)

    def test_no_effect(self):
        dag = Dag.from_edges(("Z", "Y"), [("Z", "Y")])
        net = DiscreteBayesNet(
            dag,
            {n: Variable(n, ("0", "1")) for n in "ZY"},
            {
                "Z": Cpt("Z", (), [[0.3, 0.7]]),
                "Y": Cpt("Y", ("Z",), [[0.4, 0.6], [0.4, 0.6]]),
            },
        )
        assert ace(net, "Z", "Y") == pytest.approx(0.0, abs=1e-15)


class TestAdjustedEstimate:
    def test_fig1_left_backdoor_set(self):
        net = load_model("fig1_left")
        adj = adjusted_estimate(net, "Z", "Y", {"X"})
        assert adj["1"].prob({"Y": "1"}) == pytest.approx(0.75, abs=1e-12)

    def test_empty_set_is_unadjusted(self):
        net = load_model("fig1_left")
        adj = adjusted_estimate(net, "Z", "Y", set())
        unadj = unadjusted_estimate(net, "Z", "Y")
        for level in ("0", "1"):
            assert np.max(np.abs(adj[level].values - unadj[level].values)) < 1e-12

    def test_model_b_biased(self):
        net = load_model("modelB")
        adj = adjusted_estimate(net, "Z", "Y", {"X"})
        assert abs(adj["1"].prob({"Y": "1"}) - 0.70) > 1e-6

    def test_positivity_violation(self):
        dag = Dag.from_edges(("X", "Z", "Y"), [("X", "Z"), ("Z", "Y"), ("X", "Y")])
        net = DiscreteBayesNet(
            dag,
            {n: Variable(n, ("0", "1")) for n in "XZY"},
            {
                "X": Cpt("X", (), [[0.5, 0.5]]),
                "Z": Cpt("Z", ("X",), [[1.0, 0.0], [0.5, 0.5]]),  # z=1 impossible at x=0
                "Y": Cpt("Y", ("Z", "X"), [[0.9, 0.1]] * 4),
            },
        )
        with pytest.raises(PositivityViolation):
            adjusted_estimate(net, "Z", "Y", {"X"})

    def test_admissible_implies_truth(self):
        # cross-module: back-door admissible set => adjustment is exact
        rng = np.random.default_rng(41)
        for model in ("fig1_left", "modelB", "fig2_model1"):
            dag = load_model(model).dag
            pool = [n for n in dag.nodes if n not in ("Z", "Y")]
            admissible = [
                set(s)
                for r in range(len(pool) + 1)
                for s in itertools.combinations(pool, r)
                if backdoor_admissible(dag, "Z", "Y", set(s))
            ]
            assert admissible
            for _ in range(100):
                net = random_scenario(model, rng)
                for s in admissible:
                    adj = adjusted_estimate(net, "Z", "Y", s)
                    for level in ("0", "1"):
                        truth = interventional_distribution(net, "Y", {"Z": level})
                        assert np.max(np.abs(adj[level].values - truth.values)) < 1e-10


class TestUnadjusted:
    def test_model_b_truth(self):
        unadj = unadjusted_estimate(load_model("modelB"), "Z", "Y")
        assert unadj["1"].prob({"Y": "1"}) == pytest.approx(0.70, abs=1e-12)

    def test_fig1_left_confounded(self):
        unadj = unadjusted_estimate(load_model("fig1_left"), "Z", "Y")
        assert unadj["1"].prob({"Y": "1"}) == pytest.approx(0.84, abs=1e-12)

    def test_isolated_treatment(self):
        dag = Dag(("Z", "Y"), {"Z": (), "Y": ()})
        net = DiscreteBayesNet(
            dag,
            {n: Variable(n, ("0", "1")) for n in "ZY"},
            {"Z": Cpt("Z", (), [[0.4, 0.6]]), "Y": Cpt("Y", (), [[0.3, 0.7]])},
        )
        unadj = unadjusted_estimate(net, "Z", "Y")
        marg = joint(net).marginal({"Y"})
        for level in ("0", "1"):
            assert np.max(np.abs(unadj[level].values - marg.values)) < 1e-12


class TestConditioningBias:
    def test_two_route_identity_model_b(self):
        net = load_model("modelB")
        rep = effect_report(net, "Z", "Y", ["X"])
        direct = conditioning_bias(net, "Z", "Y", "X")
        assert direct != 0.0
        assert abs(direct - ace_gap(rep)) < 1e-12

    def test_two_route_identity_random(self):
        rng = np.random.default_rng(43)
        for model in ("modelB", "modelC", "modelD"):
            for _ in range(100):
                net = random_scenario(model, rng)
                rep = effect_report(net, "Z", "Y", ["X"])
                direct = conditioning_bias(net, "Z", "Y", "X")
                assert abs(direct - ace_gap(rep)) < 1e-12

    def test_independent_covariate_zero(self):
        dag = Dag(("X", "Z", "Y"), {"X": (), "Z": (), "Y": ("Z",)})
        net = DiscreteBayesNet(
            dag,
            {n: Variable(n, ("0", "1")) for n in "XZY"},
            {
                "X": Cpt("X", (), [[0.35, 0.65]]),
                "Z": Cpt("Z", (), [[0.5, 0.5]]),
                "Y": Cpt("Y", ("Z",), [[0.8, 0.2], [0.3, 0.7]]),
            },
        )
        assert conditioning_bias(net, "Z", "Y", "X") == pytest.approx(0.0, abs=1e-15)


class TestSelection:
    def test_fig1_left(self):
        assert select_sufficient_confounders(load_model("fig1_left"), "Z", "Y").chosen == ("X",)

    def test_fig1_right(self):
        assert select_sufficient_confounders(load_model("fig1_right"), "Z", "Y").chosen == ()

    def test_fig2_model1(self):
        result = select_sufficient_confounders(load_model("fig2_model1"), "Z", "Y")
        assert set(result.chosen) == {"X", "W"}

    def test_audit_trail_nonempty_and_deterministic(self):
        net = load_model("fig2_model1")
        r1 = select_sufficient_confounders(net, "Z", "Y")
        r2 = select_sufficient_confounders(net, "Z", "Y")
        assert r1.audit == r2.audit
        assert any(rec.stage == 1 for rec in r1.audit)
        assert any(rec.stage == 2 for rec in r1.audit)

    def test_distributional_mode_agrees(self):
        rng = np.random.default_rng(47)
        for name in ("fig1_left", "fig1_right", "modelB"):
            net = load_model(name)
            g = select_sufficient_confounders(net, "Z", "Y", mode="graphical")
            d = select_sufficient_confounders(net, "Z", "Y", mode="distributional")
            assert g.chosen == d.chosen

    def test_selected_set_recovers_truth(self):
        rng = np.random.default_rng(53)
        for model in ("fig1_left", "fig1_right", "fig2_model1"):
            chosen = select_sufficient_confounders(load_model(model), "Z", "Y").chosen
            for _ in range(50):
                net = random_scenario(model, rng)
                adj = adjusted_estimate(net, "Z", "Y", chosen)
                for level in ("0", "1"):
                    truth = interventional_distribution(net, "Y", {"Z": level})
                    assert np.max(np.abs(adj[level].values - truth.values)) < 1e-10

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_distributional_matches_per_subset_loop(self, seed):
        # the reference recomputes the full-set conditional at every test
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(2, 8)), zero_frac=0.3)
        t, o = (str(v) for v in rng.choice(net.dag.nodes, size=2, replace=False))
        got = select_sufficient_confounders(net, t, o, mode="distributional")
        chosen, pool, stage1, audit = select_distributional(net, t, o, SELECTION_TOL)
        assert (got.chosen, got.pool, got.stage1) == (chosen, pool, stage1)
        assert [(r.stage, r.subset, r.verdict) for r in got.audit] == audit

    def test_pool_cap(self):
        names = tuple(f"C{i}" for i in range(13)) + ("Z", "Y")
        dag = Dag(names, {n: () for n in names})
        net = DiscreteBayesNet(
            dag,
            {n: Variable(n, ("0", "1")) for n in names},
            {n: Cpt(n, (), [[0.5, 0.5]]) for n in names},
        )
        with pytest.raises(SizeCapExceeded):
            select_sufficient_confounders(net, "Z", "Y")


def conditional_equal_loop(net, f, target, given_common, full_set, sub_set, tolerance):
    """The per-configuration loop that ``_conditional_equal`` replaced."""
    cond_full = list(given_common) + list(full_set)
    cond_sub = list(given_common) + list(sub_set)
    f_cond = f.marginal(set(cond_full))
    worst = 0.0
    for cfg in itertools.product(*[net.variables[v].states for v in cond_full]):
        ev_full = dict(zip(cond_full, cfg))
        if f_cond.prob(ev_full) <= 0:
            continue
        ev_sub = {v: ev_full[v] for v in cond_sub}
        p_full = f.condition(ev_full).marginal({target}).values
        p_sub = f.condition(ev_sub).marginal({target}).values
        worst = max(worst, float(np.max(np.abs(p_full - p_sub))))
    return worst <= tolerance


class TestConditionalEqual:
    def test_verdicts_match_per_configuration_loop(self):
        # every equality test that selection could make, on random nets
        # with CPT zeros; the reference is the loop this helper replaced
        rng = np.random.default_rng(29)
        seen = []
        for _ in range(30):
            net = random_net(rng, int(rng.integers(3, 7)), zero_frac=0.3)
            f = joint(net)
            t, o = (str(v) for v in rng.choice(net.dag.nodes, size=2, replace=False))
            pool = tuple(v for v in net.dag.nodes if v not in (t, o))[:3]
            for full_set in (pool, pool[1:]):
                for r in range(len(full_set)):
                    for sub in itertools.combinations(full_set, r):
                        for target, common in ((o, (t,)), (t, ())):
                            args = (target, common, full_set, sub)
                            expected = conditional_equal_loop(net, f, *args, 1e-9)
                            equal = _conditional_equal(f, target, common, full_set)
                            assert equal(sub) == expected
                            seen.append(expected)
        assert 0 < sum(seen) < len(seen)


class TestEffectReport:
    def test_model_b_pattern(self):
        net = load_model("modelB")
        rep = effect_report(net, "Z", "Y", ["X"])
        # Y's states are 0 and 1, so the expected outcome is p(Y=1)
        assert rep.levels == ("0", "1")
        assert rep.truth[1] == pytest.approx(0.70, abs=1e-12)
        assert rep.unadjusted[1] == pytest.approx(0.70, abs=1e-12)
        assert abs(rep.adjusted[1] - 0.70) > 1e-6
        # adjusting for nothing is the plain conditional
        empty = effect_report(net, "Z", "Y", [])
        assert empty.adjusted == pytest.approx(rep.unadjusted, abs=1e-12)

    def test_internal_consistency(self):
        rng = np.random.default_rng(59)
        for model in ("modelB", "modelC", "modelD"):
            net = random_scenario(model, rng)
            rep = effect_report(net, "Z", "Y", ["X"])
            ace_true = rep.truth[-1] - rep.truth[0]
            for est in (rep.adjusted, rep.unadjusted):
                errs = [e - t for e, t in zip(est, rep.truth)]
                ace_error = (est[-1] - est[0]) - ace_true
                assert abs(ace_error - (errs[-1] - errs[0])) < 1e-12

    def test_model_c_and_d_double_failure(self):
        for name in ("modelC", "modelD"):
            rep = effect_report(load_model(name), "Z", "Y", ["X"])
            for est in (rep.adjusted, rep.unadjusted):
                assert max(abs(e - t) for e, t in zip(est, rep.truth)) > 1e-6

    def test_every_state_of_a_three_state_treatment(self):
        dag = Dag.from_edges(
            ("U", "X", "Z", "Y"), [("U", "X"), ("U", "Z"), ("X", "Y"), ("Z", "Y")]
        )
        net = random_cpts(dag, np.random.default_rng(61), {"U": 2, "X": 2, "Z": 3, "Y": 3})
        rep = effect_report(net, "Z", "Y", ["X"])

        def mean(dist):
            return sum(float(y) * p for y, p in dist.items())

        def brute(given):
            return {k[0]: v for k, v in brute_query(net, ["Y"], given).items()}

        p_x = {k[0]: v for k, v in brute_query(net, ["X"], {}).items()}
        assert rep.levels == ("0", "1", "2")
        for i, z in enumerate(rep.levels):
            adjusted = sum(mean(brute({"Z": z, "X": x})) * p for x, p in p_x.items())
            assert rep.truth[i] == pytest.approx(mean(brute_do(net, "Y", {"Z": z})), abs=1e-10)
            assert rep.adjusted[i] == pytest.approx(adjusted, abs=1e-10)
            assert rep.unadjusted[i] == pytest.approx(mean(brute({"Z": z})), abs=1e-10)
        # X blocks the back door, so adjusting recovers the truth and ignoring does not
        assert rep.adjusted == pytest.approx(rep.truth, abs=1e-10)
        assert max(abs(u - t) for u, t in zip(rep.unadjusted, rep.truth)) > 1e-6


def outcome_of(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return "returned", call()
    except Exception as exc:  # compared, type and message, with the reference's
        return "raised", (type(exc), str(exc))


def assert_same(got, want):
    """Exact equality: the same floats, Factors and errors."""
    assert got[0] == want[0], (got, want)
    got, want = got[1], want[1]
    if isinstance(want, dict):
        assert list(got) == list(want)
        for level, f in want.items():
            g = got[level]
            assert (g.scope, g.states) == (f.scope, f.states)
            assert np.array_equal(g.values, f.values)
    elif isinstance(want, Factor):
        assert (got.scope, got.states) == (want.scope, want.states)
        assert np.array_equal(got.values, want.values)
    else:
        assert got == want


def zero_net():
    """X -> Z, X -> Y, Z -> Y, W root with p(W=1) = 0; Z is never 1 when X is 1."""
    parents = {"X": (), "W": (), "Z": ("X",), "Y": ("Z", "X")}
    tables = {
        "X": [[0.6, 0.4]],
        "W": [[1.0, 0.0]],
        "Z": [[0.3, 0.7], [1.0, 0.0]],
        "Y": [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5], [0.2, 0.8]],
    }
    return DiscreteBayesNet(
        Dag(tuple(parents), parents),
        {n: Variable(n, ("0", "1")) for n in parents},
        {n: Cpt(n, parents[n], tables[n]) for n in parents},
    )


class TestArrayIntermediates:
    """The estimators keep their intermediate tables as arrays; the
    Factor-chain references in ``oracles`` give the same floats and errors."""

    @staticmethod
    def check_all(net, t, o, x, s, level1, level0):
        f = joint(net)
        calls = {
            "conditioning_bias": lambda m: m.conditioning_bias(net, t, o, x, level1, level0),
            "unadjusted_estimate": lambda m: m.unadjusted_estimate(net, t, o),
            "adjusted_estimate": lambda m: m.adjusted_estimate(net, t, o, s),
            "effect_report": lambda m: m.effect_report(net, t, o, s),
            "interventional_distribution": lambda m: m.interventional_distribution(
                net, o, {t: level1 or net.states(t)[0]}
            ),
            "dependence_strength": lambda m: m.dependence_strength(f, x, t),
        }
        seen = {}
        for name, call in calls.items():
            library = latent if name == "dependence_strength" else intervention
            got = outcome_of(lambda: call(library))
            assert_same(got, outcome_of(lambda: call(oracles)))
            seen[name] = got
        return seen

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_random_networks_match_the_factor_chain(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(2, 7)), zero_frac=0.3)
        nodes = net.dag.nodes
        # names may repeat or be unknown, and levels may be unknown, so that
        # the error paths are compared too
        repeat = len(nodes) < 3 or rng.random() < 0.2
        t, o, x = ("Q" if rng.random() < 0.05 else str(v)
                   for v in rng.choice(nodes, size=3, replace=repeat))
        s = [v for v in (*nodes, "Q") if rng.random() < (0.05 if v in (t, o, "Q") else 0.4)]
        states = net.variables[t].states if t in net.variables else ("0",)

        def level():
            return None if rng.random() < 0.2 else str(rng.choice([*states, "7"]))

        self.check_all(net, t, o, x, s, level(), level())

    @pytest.mark.parametrize(
        "t, o, x, s, level1, name, error",
        [
            ("Q", "Y", "X", [], None, "effect_report", "unknown variable 'Q'"),
            ("Z", "Q", "X", ["X"], None, "adjusted_estimate", "unknown variable 'Q'"),
            ("Z", "Y", "Q", [], None, "conditioning_bias", "'Q' not in factor scope"),
            ("Z", "Y", "X", [], "7", "conditioning_bias", "'7' is not a state of 'Z'"),
            ("Z", "Y", "X", [], "7", "interventional_distribution", "'7' is not a state of 'Z'"),
            ("W", "Y", "X", [], None, "unadjusted_estimate", "p(W=1) = 0; conditional"),
            ("W", "Y", "X", [], None, "dependence_strength", "a state of 'W' has probability 0"),
            ("Z", "Y", "X", ["X"], None, "adjusted_estimate", "p(Z=1, {'X': '1'}) = 0 while"),
            ("Z", "Y", "X", [], None, "conditioning_bias", "p(Z=1, X=1) = 0 in bias expression"),
        ],
    )
    def test_each_error_matches_the_factor_chain(self, t, o, x, s, level1, name, error):
        kind, (_, message) = self.check_all(zero_net(), t, o, x, s, level1, None)[name]
        assert kind == "raised" and error in message
