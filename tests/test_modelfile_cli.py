import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalbn
from causalbn import bayesnet, cli, errors, intervention, latent, modelfile
from causalbn.bayesnet import Cpt, DiscreteBayesNet, Variable, forward_sample
from causalbn.cli import _grid_values, _parse_grid_range, build_parser, main
from causalbn.errors import DomainError, ParseError, ValidationError
from causalbn.graph import Dag
from causalbn.modelfile import (
    BUNDLED_MODELS,
    bundled_model_text,
    load_model,
    parse_model,
    serialize_model,
)

from oracles import (
    brute_do,
    brute_query,
    chain,
    random_cpts,
    scan_row,
    unscannable_net,
    with_rows,
)


@pytest.fixture
def parses(monkeypatch):
    """Every text handed to ``parse_model``, counted from an empty file cache."""
    modelfile._parsed_text.cache_clear()
    seen = []

    def counting(text):
        seen.append(text)
        return parse_model(text)

    monkeypatch.setattr(modelfile, "parse_model", counting)
    yield seen
    modelfile._parsed_text.cache_clear()


class TestModelFile:
    def test_round_trip_identity_over_corpus(self):
        for name in BUNDLED_MODELS:
            text = bundled_model_text(name)
            net = parse_model(text)
            out = serialize_model(net)
            assert out == text
            assert serialize_model(parse_model(out)) == out

    def test_fig1_left_query(self):
        from causalbn.bayesnet import query

        net = load_model("fig1_left")
        assert query(net, ["Y"], {"Z": "1"}).prob({"Y": "1"}) == pytest.approx(
            0.84, abs=1e-12
        )

    def test_wrong_row_length(self):
        doc = json.loads(bundled_model_text("fig1_left"))
        doc["cpts"]["Z"]["table"][0] = [0.5]
        with pytest.raises(ParseError, match="'Z'"):
            parse_model(json.dumps(doc))

    def test_duplicate_variable(self):
        doc = json.loads(bundled_model_text("fig1_left"))
        doc["variables"].append({"name": "X", "states": ["0", "1"]})
        with pytest.raises(ParseError, match="duplicate"):
            parse_model(json.dumps(doc))

    def test_json_error_location(self):
        with pytest.raises(ParseError, match="line"):
            parse_model("{ not json")

    def test_edges_must_match_parents(self):
        doc = json.loads(bundled_model_text("fig1_left"))
        doc["edges"] = doc["edges"][:-1]
        with pytest.raises(ParseError, match="edges disagree"):
            parse_model(json.dumps(doc))

    def test_missing_model(self):
        with pytest.raises(ParseError, match="no such file"):
            load_model("not_a_model")

    def test_bundled_model_is_parsed_once(self):
        assert load_model("modelD") is load_model("modelD")
        assert load_model("modelD.model") is load_model("modelD")

    def test_file_in_working_directory_beats_bundled_model(
        self, tmp_path, monkeypatch, parses
    ):
        monkeypatch.chdir(tmp_path)
        bundled = load_model("fig1_left")
        parses.clear()
        Path("modelD").write_text(bundled_model_text("fig1_left"), encoding="utf-8")
        net = load_model("modelD")
        assert net.dag.nodes == bundled.dag.nodes
        # the same bytes give the same network, parsed once
        assert load_model("modelD") is net and len(parses) == 1
        assert main(["query", "modelD", "--target", "Y", "--given", "Z=1"]) == 0

    def test_rewritten_file_gives_its_new_network(self, tmp_path, parses):
        path = tmp_path / "m.model"
        path.write_text(bundled_model_text("fig1_left"), encoding="utf-8")
        assert load_model(str(path)).dag.nodes == ("X", "Z", "Y")
        path.write_text(bundled_model_text("fig2_model1"), encoding="utf-8")
        net = load_model(str(path))
        assert net.dag.nodes == load_model("fig2_model1").dag.nodes
        assert net.dag.nodes != ("X", "Z", "Y")

    def test_malformed_file_raises_on_every_call(self, tmp_path, parses):
        path = tmp_path / "m.model"
        text = bundled_model_text("fig1_left")
        path.write_text(text, encoding="utf-8")
        net = load_model(str(path))
        path.write_text(text[:-10], encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ParseError, match="line"):
                load_model(str(path))
        assert len(parses) == 3  # a failed parse is not cached
        path.write_text(text, encoding="utf-8")
        assert load_model(str(path)) is net and len(parses) == 3

    def test_eviction_past_the_bound_reparses(self, tmp_path, parses):
        size = modelfile.MODEL_TEXT_CACHE_SIZE
        assert modelfile._parsed_text.cache_info().maxsize == size
        base = bundled_model_text("fig1_left")
        # trailing blanks give distinct texts of the same network
        paths = []
        for i in range(size + 1):
            paths.append(tmp_path / f"m{i}.model")
            paths[-1].write_text(base + " " * i, encoding="utf-8")
        first = load_model(str(paths[0]))
        for path in paths[1:size]:
            load_model(str(path))
        assert load_model(str(paths[0])) is first and len(parses) == size
        load_model(str(paths[size]))  # evicts the least recently used, m1
        assert len(parses) == size + 1
        assert load_model(str(paths[0])) is first and len(parses) == size + 1
        load_model(str(paths[1]))
        assert len(parses) == size + 2 and parses[-1] == base + " "


def test_import_builds_no_parser_and_parses_no_model():
    src = str(Path(causalbn.__file__).resolve().parents[1])
    code = (
        "import causalbn, causalbn.cli\n"
        "from causalbn import cli, modelfile\n"
        "print(cli._parser.cache_info().currsize,"
        " modelfile._bundled_model.cache_info().currsize,"
        " modelfile._parsed_text.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout.split() == ["0", "0", "0"]


class TestCli:
    def test_corr_interval(self, capsys):
        assert main(["corr", "--r1", "0.8", "--r2", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "0.131514294287" in out
        assert "0.988485705713" in out
        assert "0 excluded" in out

    def test_corr_with_r3_exit_codes(self, capsys):
        assert main(["corr", "--r1", "0.8", "--r2", "0.7", "--r3", "0.0"]) == 1
        assert "infeasible" in capsys.readouterr().out
        assert main(["corr", "--r1", "0.8", "--r2", "0.7", "--r3", "0.56"]) == 0

    @pytest.mark.parametrize("r3", ["2", "nan"])
    def test_corr_domain_error_prints_nothing(self, capsys, r3):
        assert main(["corr", "--r1", "0.5", "--r2", "0.5", "--r3", r3]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_do(self, capsys):
        assert main(["do", "fig1_left", "--target", "Y", "--do", "Z=1"]) == 0
        assert "Y=1: 0.75" in capsys.readouterr().out

    def test_query(self, capsys):
        assert main(["query", "fig1_left", "--target", "Y", "--given", "Z=1"]) == 0
        assert "Y=1: 0.84" in capsys.readouterr().out

    def test_ace(self, capsys):
        assert main(["ace", "fig1_left", "--treatment", "Z", "--outcome", "Y"]) == 0
        assert capsys.readouterr().out.strip() == "0.45"

    def test_adjust(self, capsys):
        assert main(
            ["adjust", "fig1_left", "--treatment", "Z", "--outcome", "Y", "--set", "X"]
        ) == 0
        out = capsys.readouterr().out
        assert "adjusted=0.75" in out and "true=0.75" in out

    def test_dsep_exit_codes(self, capsys):
        assert main(["dsep", "modelB", "--a", "Z", "--b", "W"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["dsep", "modelB", "--a", "Z", "--b", "W", "--given", "X"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_backdoor_exit_codes(self):
        assert main(
            ["backdoor", "fig1_left", "--treatment", "Z", "--outcome", "Y", "--set", "X"]
        ) == 0
        assert main(
            ["backdoor", "modelB", "--treatment", "Z", "--outcome", "Y", "--set", "X"]
        ) == 1

    def test_select(self, capsys):
        assert main(["select", "fig1_left", "--treatment", "Z", "--outcome", "Y"]) == 0
        out = capsys.readouterr().out
        assert "chosen: X" in out
        assert "stage 1" in out

    def test_bias(self, capsys):
        assert main(
            ["bias", "modelB", "--treatment", "Z", "--outcome", "Y", "--covariate", "X"]
        ) == 0
        out = capsys.readouterr().out
        assert "bias: " in out and "per-level error" in out

    def test_decompose(self, capsys):
        assert main(
            ["decompose", "--py", "0.3", "--pyp", "0.6", "--lo", "0.1", "--hi", "0.8"]
        ) == 0
        out = capsys.readouterr().out
        assert "p(t|y): 0.285714285714" in out
        assert "p(t|y'): 0.714285714286" in out

    def test_decompose_infeasible_exit_4(self, capsys):
        assert main(
            ["decompose", "--py", "0.3", "--pyp", "0.6", "--lo", "0.4", "--hi", "0.8"]
        ) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ends",
        [["--lo", "nan"], ["--lo", "-0.5"], ["--hi", "1.5"], ["--hi", "inf"],
         ["--lo", "0.1", "--hi", "nan"]],
        ids=["lo-nan", "lo-negative", "hi-above-1", "hi-inf", "hi-nan"],
    )
    def test_decompose_endpoint_not_a_probability_exit_4(self, capsys, ends):
        assert main(["decompose", "--py", "0.3", "--pyp", "0.6", *ends]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = ends[-1]
        assert captured.err == f"error: endpoint {float(bad)} outside [0,1]\n"

    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("{ nope", encoding="utf-8")
        assert main(["query", str(bad), "--target", "Y"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_nan_cpt_entry_exit_3(self, tmp_path, capsys):
        # json.loads accepts NaN, so the range check must reject it
        doc = json.loads(bundled_model_text("fig1_left"))
        doc["cpts"]["X"]["table"] = [[float("nan"), 0.5]]
        bad = tmp_path / "nan.model"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert "NaN" in bad.read_text(encoding="utf-8")
        assert main(["query", str(bad), "--target", "Y"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside [0,1]" in err
        assert "Traceback" not in err

    def test_target_in_evidence_exit_3(self, capsys):
        assert main(["query", "fig1_left", "--target", "Y", "--given", "Y=1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target cannot also be evidence\n"

    def test_long_chain_early_requests_answer_and_late_ones_exit_4(self, tmp_path, capsys):
        path = tmp_path / "chain.model"
        path.write_text(serialize_model(chain(30)), encoding="utf-8")
        short = tmp_path / "short.model"
        short.write_text(serialize_model(chain(4)), encoding="utf-8")
        for argv in (["query", "--target", "N2", "--given", "N1=1"],
                     ["do", "--target", "N3", "--do", "N1=0"]):
            assert main([argv[0], str(short), *argv[1:]]) == 0
            expected = capsys.readouterr().out
            assert main([argv[0], str(path), *argv[1:]]) == 0
            assert capsys.readouterr().out == expected
        # the last node's ancestors span 2**30 configurations
        assert main(["query", str(path), "--target", "N29"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "configurations" in captured.err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["query"])  # missing required --target and model
        assert exc.value.code == 2

    def test_sample_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(
                ["sample", "fig1_left", "-n", "500", "--seed", "9", "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text(encoding="utf-8")
        assert text.startswith("X,Z,Y\n")
        assert len(text.splitlines()) == 501

    def test_sample_empty_exit_4(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert main(
            ["sample", "fig1_left", "-n", "0", "--seed", "9", "--out", str(out)]
        ) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_sample_negative_seed_exit_4(self, tmp_path, capsys):
        with pytest.raises(DomainError, match="seed"):
            forward_sample(load_model("fig1_left"), 5, -1)
        out = tmp_path / "neg.csv"
        assert main(
            ["sample", "fig1_left", "-n", "5", "--seed", "-1", "--out", str(out)]
        ) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ace", "modelD", "--treatment", "Q", "--outcome", "Y"],
            ["ace", "modelD", "--treatment", "Z", "--outcome", "Q"],
            ["bias", "modelD", "--treatment", "Q", "--outcome", "Y", "--covariate", "X"],
            ["bias", "modelD", "--treatment", "Z", "--outcome", "Q", "--covariate", "X"],
            ["adjust", "modelD", "--treatment", "Z", "--outcome", "Q"],
            ["adjust", "modelD", "--treatment", "Z", "--outcome", "Y", "--set", "Q"],
            ["do", "modelD", "--target", "Y", "--do", "Q=1"],
            ["do", "modelD", "--target", "Q", "--do", "Z=1"],
        ],
    )
    def test_unknown_name_exit_4(self, capsys, argv):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown variable 'Q'\n"

    def test_one_treatment_level_keeps_the_other_default(self, tmp_path, capsys):
        # a 3-state treatment, so z1 and z0 each have a distinct default
        dag = Dag.from_edges(("U", "Z", "Y"), [("U", "Z"), ("U", "Y"), ("Z", "Y")])
        net = random_cpts(dag, np.random.default_rng(5), {"U": 2, "Z": 3, "Y": 3})
        path = tmp_path / "three.model"
        path.write_text(serialize_model(net), encoding="utf-8")

        def mean(z):
            return sum(float(y) * p for y, p in brute_do(net, "Y", {"Z": z}).items())

        base = ["ace", str(path), "--treatment", "Z", "--outcome", "Y"]
        for levels, (z1, z0) in [(["--z1", "1"], ("1", "0")), (["--z0", "1"], ("2", "1"))]:
            assert main(base + levels) == 0
            printed = float(capsys.readouterr().out)
            assert printed == pytest.approx(mean(z1) - mean(z0), abs=1e-10)
            assert abs(printed - (mean("2") - mean("0"))) > 1e-6
        bias = ["bias", str(path), "--treatment", "Z", "--outcome", "Y", "--covariate", "U"]
        assert main(bias + ["--z1", "0"]) == 0  # z1 == z0 == the first state
        assert capsys.readouterr().out.splitlines()[-1] == "bias: 0"
        assert main(bias + ["--z1", "9"]) == 4
        assert capsys.readouterr().err == "error: '9' is not a state of 'Z'\n"

    @pytest.mark.parametrize("places", [5, 6])
    def test_grid_values_come_from_an_integer_index(self, places):
        values = _grid_values(*_parse_grid_range(f"0:1:{10.0 ** -places:.{places}f}"))
        assert values == [i / 10**places for i in range(10**places + 1)]

    def test_scan_reversed_range_exit_3(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="start exceeds end"):
            _parse_grid_range("0.4:0.2:0.1")
        out = tmp_path / "scan.csv"
        argv = ["scan", "modelD", "--param", "u=0.4:0.2:0.1", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: empty grid range")
        assert not out.exists()

    def test_scan_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "scan", "modelD",
                "--param", "u=0.2:0.8:0.3",
                "--param", "w|u=1=0.3:0.9:0.3",
                "--out", str(out),
            ]
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("u,w|u=1,dep_zx")
        assert len(text.splitlines()) == 1 + 3 * 3
        assert "condition wins" in capsys.readouterr().out

    @pytest.mark.parametrize("covariate", ["Q", "Z"])
    def test_scan_bad_node_exit_3(self, tmp_path, capsys, covariate):
        out = tmp_path / "scan.csv"
        argv = ["scan", "modelD", "--param", "u=0.2:0.4:0.1",
                "--covariate", covariate, "--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "three distinct nodes" in captured.err
        assert not out.exists()

    def test_byte_identical_output(self, capsys):
        main(["ace", "modelB", "--treatment", "Z", "--outcome", "Y"])
        first = capsys.readouterr().out
        main(["ace", "modelB", "--treatment", "Z", "--outcome", "Y"])
        assert capsys.readouterr().out == first

    def test_bias_reports_expected_outcome_differences(self, tmp_path, capsys):
        # M-structure, so adjusting for X is biased; with a 3-state outcome
        # the last state's probability is not the expected outcome, and a
        # 3-state treatment gets one line per state
        dag = Dag.from_edges(
            ("U", "W", "X", "Z", "Y"),
            [("U", "Z"), ("U", "X"), ("W", "X"), ("W", "Y"), ("Z", "Y")],
        )
        cards = {"U": 2, "W": 2, "X": 3, "Z": 3, "Y": 3}
        net = random_cpts(dag, np.random.default_rng(3), cards)
        path = tmp_path / "three.model"
        path.write_text(serialize_model(net), encoding="utf-8")
        argv = ["bias", str(path), "--treatment", "Z", "--outcome", "Y", "--covariate", "X"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()

        def mean(dist):
            return sum(float(y) * p for y, p in dist.items())

        p_x = {k[0]: v for k, v in brute_query(net, ["X"], {}).items()}
        errors, gaps = [], {}
        for z in ("0", "1", "2"):
            adjusted = {
                y: sum(
                    brute_query(net, ["Y"], {"Z": z, "X": x})[(y,)] * p_x[x] for x in p_x
                )
                for y in ("0", "1", "2")
            }
            plain = {k[0]: v for k, v in brute_query(net, ["Y"], {"Z": z}).items()}
            truth = brute_do(net, "Y", {"Z": z})
            errors.append(mean(adjusted) - mean(truth))
            # the last state's difference is a different number here
            assert abs(errors[-1] - (adjusted["2"] - truth["2"])) > 1e-6
            gaps[z] = mean(adjusted) - mean(plain)
        assert [line.split(": ")[0] for line in lines] == [
            "per-level error at Z=0", "per-level error at Z=1", "per-level error at Z=2",
            "bias",
        ]
        for line, expected in zip(lines, errors):
            assert float(line.split(": ")[1]) == pytest.approx(expected, abs=1e-10)
        assert float(lines[3].split(": ")[1]) == pytest.approx(
            gaps["2"] - gaps["0"], abs=1e-10
        )


def _write_broken_models(tmp_path):
    """fig1_left (X -> Z -> Y, X -> Y) with an added Y -> X edge or X -> X
    loop, with Z's parent listed twice, with a number for its variables or
    edges, with a list for an edge's child or a CPT parent, with a table
    entry past the float range, and with JSON booleans for table entries;
    and a file that is not UTF-8."""
    doc = json.loads(bundled_model_text("fig1_left"))

    def write(name, edit):
        broken = json.loads(json.dumps(doc))
        edit(broken)
        (tmp_path / f"{name}.model").write_text(json.dumps(broken), encoding="utf-8")

    def cyclic(d):
        d["cpts"]["X"] = {"parents": ["Y"], "table": [[0.5, 0.5], [0.5, 0.5]]}
        d["edges"].append(["Y", "X"])

    def self_loop(d):
        d["cpts"]["X"] = {"parents": ["X"], "table": [[0.5, 0.5], [0.5, 0.5]]}
        d["edges"].append(["X", "X"])

    write("cyclic", cyclic)
    write("self-loop", self_loop)
    write("twice", lambda d: d["cpts"].update(Z={"parents": ["X", "X"], "table": [[0.5, 0.5]] * 4}))
    write("int-variables", lambda d: d.update(variables=5))
    write("int-edges", lambda d: d.update(edges=5))
    write("list-child", lambda d: d["edges"].__setitem__(0, ["X", ["Z"]]))
    write("list-parent", lambda d: d["cpts"]["Z"].update(parents=[["X"]]))
    write("huge-entry", lambda d: d["cpts"]["X"]["table"][0].__setitem__(0, 10**400))
    write("bool-entries", lambda d: d["cpts"]["X"].update(table=[[True, False]]))
    (tmp_path / "latin1.model").write_bytes(json.dumps(doc).encode("utf-8") + b"\xe9")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["query", "TMP/cyclic.model", "--target", "Y"], "cycle among"),
        (["sample", "TMP/cyclic.model", "-n", "5", "--seed", "1", "--out", "TMP/out.csv"],
         "cycle among"),
        (["query", "TMP/twice.model", "--target", "Y"], "duplicate parents for 'Z'"),
        (["backdoor", "modelD", "--treatment", "Z", "--outcome", "Z"], "must differ"),
        (["ace", "modelD", "--treatment", "Z", "--outcome", "Z"], "must be distinct"),
        (["adjust", "modelD", "--treatment", "Z", "--outcome", "Z"], "must be distinct"),
        (["select", "modelD", "--treatment", "Z", "--outcome", "Z"], "must be distinct"),
        (["select", "modelD", "--treatment", "Z", "--outcome", "Z", "--mode", "dist"],
         "must be distinct"),
        (["scan", "modelD", "--param", "u=a:1:0.1", "--out", "TMP/out.csv"],
         "must be numbers"),
        (["bias", "modelD", "--treatment", "Z", "--outcome", "Y", "--covariate", "Z"],
         "must be distinct"),
        (["bias", "modelD", "--treatment", "Z", "--outcome", "Y", "--covariate", "Y"],
         "must be distinct"),
        (["query", "TMP", "--target", "Y"], "cannot read TMP: Is a directory"),
        (["query", "", "--target", "Y"], "no such file or bundled model: ''"),
        (["query", "TMP/latin1.model", "--target", "Y"],
         "cannot read TMP/latin1.model: 'utf-8' codec can't decode"),
        (["scan", "modelD", "--param", "u=nan:1:0.1", "--out", "TMP/out.csv"],
         "must be finite"),
        (["scan", "modelD", "--param", "u=0:1:inf", "--out", "TMP/out.csv"],
         "must be finite"),
        (["scan", "modelD", "--param", "u=0.5:1.5:0.5", "--out", "TMP/out.csv"],
         "needs values, all in [0, 1]"),
        (["scan", "modelD", "--param", "u=0.2:0.4:0.2",
          "--param", "u=0.6:0.8:0.2", "--out", "TMP/out.csv"], "repeated --param 'u'"),
        (["query", "fig1_left", "--target", "Y", "--given", "Z=1,Z=0"],
         "repeated assignment to 'Z'"),
        (["do", "fig1_left", "--target", "Y", "--do", "Z=1, Z=1"],
         "repeated assignment to 'Z'"),
        (["scan", "modelD", "--param", "u=0:1:1e-300", "--out", "TMP/out.csv"],
         "too many values; its index passes 1000000"),
        (["scan", "modelD", "--param", "u=0:1:0.001",
          "--param", "w|u=1=0:1:0.001", "--out", "TMP/out.csv"],
         "grid of 1002001 cells exceeds 1000000"),
        (["scan", "modelD", "--param", "u=0:1:0.000001", "--out", "TMP/out.csv"],
         "grid of 1000001 cells exceeds 1000000"),
        (["query", "TMP/int-variables.model", "--target", "Y"], "variables must be a list"),
        (["query", "TMP/int-edges.model", "--target", "Y"], "edges must be a list"),
        (["query", "TMP/list-child.model", "--target", "Y"],
         "edges[0]: variable names must be strings"),
        (["query", "TMP/list-parent.model", "--target", "Y"],
         "cpts['Z']: parents must name existing variables"),
        (["query", "TMP/huge-entry.model", "--target", "Y"],
         "cpts['X']: an entry is too large for a float"),
        (["query", "TMP/bool-entries.model", "--target", "Y"],
         "cpts['X']: row 0 has a non-numeric entry"),
        (["query", "TMP/self-loop.model", "--target", "Y"],
         "no topological order; cycle among ['X']\n"),
        (["dsep", "fig1_left", "--a", "", "--b", "Y"], "--a names no variable"),
        (["dsep", "fig1_left", "--a", ",", "--b", "Y"], "--a names no variable"),
        (["dsep", "fig1_left", "--a", "Z", "--b", " , "], "--b names no variable"),
        (["do", "fig1_left", "--target", "Y", "--do", ""], "--do names no variable"),
    ],
    ids=[
        "query-cyclic", "sample-cyclic", "query-parent-twice", "backdoor", "ace",
        "adjust", "select-graph", "select-dist", "scan-non-number",
        "bias-covariate-treatment", "bias-covariate-outcome", "query-directory",
        "query-empty-path", "query-not-utf8", "scan-nan-bound", "scan-inf-step",
        "scan-outside-unit",
        "scan-repeated-param", "query-repeated-given", "do-repeated-do",
        "scan-axis-too-long", "scan-grid-too-large", "scan-axis-past-the-grid-bound",
        "query-int-variables", "query-int-edges", "query-list-child", "query-list-parent",
        "query-huge-entry", "query-bool-entries", "query-self-loop", "dsep-empty-a",
        "dsep-comma-a", "dsep-blank-b", "do-empty-do",
    ],
)
def test_invalid_input_exit_3_without_traceback(tmp_path, capsys, argv, message):
    _write_broken_models(tmp_path)
    assert main([arg.replace("TMP", str(tmp_path)) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message = message.replace("TMP", str(tmp_path))
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "params, cells",
    [(["u=0:1:0.000001"], 1000001), (["u=0:1:0.001", "w|u=1=0:1:0.001"], 1002001)],
)
def test_oversized_grid_refused_before_its_values_are_built(
    tmp_path, capsys, monkeypatch, params, cells
):
    def refuse(*args):
        raise AssertionError("a value list was built for an oversized grid")

    monkeypatch.setattr(cli, "_grid_values", refuse)
    out = tmp_path / "out.csv"
    argv = ["scan", "modelD", "--out", str(out)]
    for p in params:
        argv += ["--param", p]
    assert main(argv) == 3
    message = f"error: grid of {cells} cells exceeds 1000000\n"
    assert capsys.readouterr().err == message
    assert not out.exists()
    # the same refusal, word for word, as ``bias_scan`` gives the built grid
    monkeypatch.undo()
    grid = {
        p.rsplit("=", 1)[0]: _grid_values(*_parse_grid_range(p.rsplit("=", 1)[1]))
        for p in params
    }
    with pytest.raises(ValidationError) as exc:
        latent.bias_scan(load_model("modelD"), grid)
    assert f"error: {exc.value}\n" == message


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sample", "fig1_left", "-n", "5", "--seed", "1", "--out", "TMP"], "Is a directory"),
        (["sample", "fig1_left", "-n", "5", "--seed", "1", "--out", "TMP/missing/out.csv"],
         "No such file or directory"),
        (["scan", "modelD", "--param", "u=0.2:0.4:0.2", "--out", "TMP"],
         "Is a directory"),
        (["scan", "modelD", "--param", "u=0.2:0.4:0.2", "--out",
          "TMP/missing/out.csv"], "No such file or directory"),
    ],
    ids=["sample-dir", "sample-missing-dir", "scan-dir", "scan-missing-dir"],
)
def test_unwritable_out_exit_3_without_traceback(tmp_path, capsys, argv, reason):
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {argv[-1]}: {reason}")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


def check_scan_csv(text, net, grid, roles):
    """Every row of a scan CSV against ``oracles.scan_row`` at its grid point."""
    names = sorted(grid)
    header, *rows = csv.reader(io.StringIO(text))
    columns = header[-10:]
    assert header == names + columns
    cells = list(itertools.product(*[grid[a] for a in names]))
    assert len(rows) == len(cells)
    for values, fields in zip(cells, rows):
        assert len(fields) == len(header)
        assert fields[: len(names)] == [f"{v:.12g}" for v in values]
        row = dict(zip(columns, fields[len(names):]))
        ref = scan_row(with_rows(net, dict(zip(names, values))), *roles)
        for col in ("dep_zx", "dep_xy", "err_adj_z0", "err_adj_z1", "err_unadj_z0",
                    "err_unadj_z1", "err_adj_ace", "err_unadj_ace"):
            assert abs(float(row[col]) - ref[col]) <= 1e-10, (values, col)
        delta = ref["interaction_delta"]
        if delta is None:
            assert row["interaction_class"] == "none"
        elif abs(delta) > 1e-9:
            klass = "explaining_away" if delta < 0 else "monotonic"
            assert row["interaction_class"] == klass
        gap = ref["err_adj_ace"] - ref["err_unadj_ace"]
        if abs(gap) > 1e-9:
            assert row["winner"] == ("condition" if gap < 0 else "ignore")


def renamed(net, names):
    """``net`` with each node renamed by ``names``."""
    dag = Dag(
        tuple(names[n] for n in net.dag.nodes),
        {names[n]: tuple(names[p] for p in net.dag.parents[n]) for n in net.dag.nodes},
    )
    variables = {names[n]: Variable(names[n], v.states) for n, v in net.variables.items()}
    cpts = {
        names[n]: Cpt(names[n], tuple(names[p] for p in c.parents), c.table)
        for n, c in net.cpts.items()
    }
    return DiscreteBayesNet(dag, variables, cpts)


@pytest.mark.parametrize("model", BUNDLED_MODELS + ("renamed-modelD",))
def test_every_model_scans_and_matches_the_oracles(tmp_path, capsys, model):
    roles = ("Z", "Y", "X")
    if model == "renamed-modelD":
        names = dict(zip("UWXZY", "ABCDE"))
        net = renamed(load_model("modelD"), names)
        roles = ("D", "E", "C")
        model = str(tmp_path / "abcde.model")
        Path(model).write_text(serialize_model(net), encoding="utf-8")
    net = load_model(model)
    # the first node is a root, and the last CPT row of the last node
    first, last = net.dag.nodes[0], net.dag.nodes[-1]
    cond = ",".join(f"{p.lower()}=1" for p in net.dag.parents[last])
    axes = [first.lower(), f"{last.lower()}|{cond}"]
    grid = {a: [0.2, 0.5, 0.8] for a in axes}
    out = tmp_path / "scan.csv"
    argv = ["scan", model, "--treatment", roles[0], "--outcome", roles[1],
            "--covariate", roles[2], "--out", str(out)]
    for a in axes:
        argv += ["--param", f"{a}=0.2:0.8:0.3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("cells: 9 (0 failed)\n")
    check_scan_csv(out.read_text(encoding="utf-8"), net, grid, roles)


def test_fig2_model2_scans(tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["scan", "fig2_model2", "--param", "w|u=1=0.2:0.8:0.3", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("cells: 3 (0 failed)\n")
    check_scan_csv(out.read_text(encoding="utf-8"), load_model("fig2_model2"),
                   {"w|u=1": [0.2, 0.5, 0.8]}, ("Z", "Y", "X"))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"X": ("0", "1", "2")}, "'X' has ('0', '1', '2')"),
        ({"U": ("a", "b")}, "'U' has ('a', 'b')"),
        ({"U": ("1", "0")}, "'U' has ('1', '0')"),
        ("X and x", "scan axis 'x' names two CPT rows"),
    ],
    ids=["three-states", "relabelled", "reordered", "colliding-axes"],
)
def test_unscannable_model_exit_3_before_any_cell(tmp_path, capsys, monkeypatch, change, message):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(latent, "_scan_cell", no_cell)
    path = tmp_path / "bad.model"
    path.write_text(serialize_model(unscannable_net(change)), encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = ["scan", str(path), "--param", "z|u=1=0.4:0.6:0.2", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert not out.exists()


def test_scan_boundary_cells_stay_failed_rows(tmp_path, capsys):
    # u = 0 and u = 1 are valid grid values; each leaves a state of U with
    # probability 0, so its cell is a modelled failure, not a rejected grid
    out = tmp_path / "out.csv"
    argv = ["scan", "modelD", "--param", "u=0:1:1", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("cells: 2 (2 failed)")
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    assert all(row.endswith(",failed") for row in rows)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sample", "fig1_left", "-n", "5", "--seed", "1", "--out", "TMP"], "Is a directory"),
        (["sample", "fig1_left", "-n", "5", "--seed", "1", "--out", "TMP/missing/out.csv"],
         "No such file or directory"),
        (["sample", "fig1_left", "-n", "5", "--seed", "1", "--out", "TMP/file.txt/out.csv"],
         "Not a directory"),
        (["scan", "modelD", "--param", "u=0.2:0.4:0.2", "--out", "TMP"],
         "Is a directory"),
        (["scan", "modelD", "--param", "u=0.2:0.4:0.2", "--out",
          "TMP/missing/out.csv"], "No such file or directory"),
    ],
    ids=["sample-dir", "sample-missing-dir", "sample-file-as-dir", "scan-dir",
         "scan-missing-dir"],
)
def test_unwritable_out_found_before_the_work(tmp_path, capsys, monkeypatch, argv, reason):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "forward_sample", no_work)
    monkeypatch.setattr(cli, "bias_scan", no_work)
    (tmp_path / "file.txt").write_text("kept", encoding="utf-8")
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {argv[-1]}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]
    assert (tmp_path / "file.txt").read_text(encoding="utf-8") == "kept"


def test_failed_sample_leaves_an_existing_out_untouched(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_text("kept", encoding="utf-8")
    assert main(["sample", "fig1_left", "-n", "0", "--seed", "1", "--out", str(out)]) == 4
    assert out.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("fails", ["allocation", "drawing", "rendering"])
def test_sample_out_of_memory_exit_4(tmp_path, capsys, monkeypatch, fails):
    zeros = np.zeros
    mixed_radix = causalbn.bayesnet._mixed_radix

    def no_room(shape, *args, **kwargs):
        if np.prod(shape) > 10**9:  # never allocated for real
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    def worker_fails(rows, cols, cards):
        # only the ranges after the first are drawn off the main thread
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError
        return mixed_radix(rows, cols, cards)

    def render_fails(self):
        raise MemoryError

    if fails == "allocation":
        monkeypatch.setattr(np, "zeros", no_room)
        n = "10000000000000"
    elif fails == "drawing":
        monkeypatch.setattr(causalbn.bayesnet, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(causalbn.bayesnet, "_SAMPLE_BLOCK_ROWS", 4)
        monkeypatch.setattr(causalbn.bayesnet, "_mixed_radix", worker_fails)
        n = "50"
    else:
        monkeypatch.setattr(causalbn.bayesnet.Dataset, "to_csv", render_fails)
        n = "50"
    out = tmp_path / "out.csv"
    out.write_text("kept", encoding="utf-8")
    assert main(["sample", "fig1_left", "-n", n, "--seed", "1", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {n} rows do not fit in memory\n"
    assert out.read_text(encoding="utf-8") == "kept"


def lone_surrogate_model(where):
    """fig1_left as JSON text with X renamed, or X's state "1" relabelled,
    to a lone surrogate: JSON allows ``\\ud800``, UTF-8 cannot encode it."""
    text = bundled_model_text("fig1_left")
    if where == "name":
        return text.replace('"X"', '"\\ud800"')
    doc = json.loads(text)
    doc["variables"][0]["states"] = ["0", "\udfff"]
    return json.dumps(doc)


@pytest.mark.parametrize("where", ["name", "label"])
def test_lone_surrogate_is_a_parse_error(where):
    assert "\\ud" in lone_surrogate_model(where)
    with pytest.raises(ParseError, match=r"variables\[0\].* cannot be encoded as UTF-8"):
        parse_model(lone_surrogate_model(where))


@pytest.mark.parametrize("command", ["sample", "query"])
@pytest.mark.parametrize("where", ["name", "label"])
def test_lone_surrogate_exit_3_without_traceback(tmp_path, capsys, where, command):
    model = tmp_path / "m.model"
    model.write_text(lone_surrogate_model(where), encoding="utf-8")
    out = tmp_path / "out.csv"
    out.write_bytes(b"kept\n")
    if command == "sample":
        argv = ["sample", str(model), "-n", "5", "--seed", "1", "--out", str(out)]
    else:
        argv = ["query", str(model), "--target", "Y"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: variables[0]")
    assert "UTF-8" in captured.err and "Traceback" not in captured.err
    assert out.read_bytes() == b"kept\n"


def test_sample_to_dev_null(capsys):
    argv = ["sample", "fig1_left", "-n", "500", "--seed", "9", "--out", os.devnull]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 500 rows to {os.devnull}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_sample_to_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
    try:
        argv = ["sample", "fig1_left", "-n", "500", "--seed", "9", "--out", str(fifo)]
        assert main(argv) == 0
        received, _ = reader.communicate(timeout=60)
    finally:
        reader.kill()
        reader.wait(timeout=60)
    assert reader.returncode == 0
    expected = forward_sample(load_model("fig1_left"), 500, 9).to_csv()
    assert received == expected.encode("utf-8")


def test_scan_over_a_longer_file_leaves_exactly_the_scan_csv(tmp_path):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    reused.write_bytes(b"old\n" * 20_000)
    for out in (fresh, reused):
        assert main(["scan", "modelD", "--param", "u=0.2:0.8:0.3", "--out", str(out)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert fresh.read_bytes().startswith(b"u,dep_zx,")


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    """A reader that closed stdout before the scan's summary ends the CLI
    with the shell's SIGPIPE code, not a BrokenPipeError traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the pipe has no reader from the start
    out = tmp_path / "s.csv"
    argv = ["scan", "modelD", "--param", "w|u=1=0.1:0.9:0.1", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(causalbn.__file__).parents[1])}
    try:
        child = subprocess.run(
            [sys.executable, "-m", "causalbn.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 141, child.stderr
    assert "Traceback" not in child.stderr
    assert child.stderr == ""
    assert out.read_bytes().startswith(b"w|u=1,dep_zx,")


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit")
def test_write_cut_short_leaves_no_old_byte(tmp_path):
    """A write stopped by the file size limit leaves the new bytes up to the
    limit, and none of the longer old file after them."""
    limit = 4096
    out = tmp_path / "out.csv"
    out.write_bytes(b"old\n" * 5000)
    program = (
        "import resource, signal, sys\n"
        "from causalbn.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        f"sys.exit(main(['sample', 'modelD', '-n', '5000', '--seed', '3', '--out', {str(out)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(causalbn.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 3, child.stderr
    assert child.stderr == f"error: cannot write {out}: File too large\n"
    expected = forward_sample(load_model("modelD"), 5000, 3).to_csv().encode("utf-8")
    assert len(expected) > 20_000
    assert out.read_bytes() == expected[:limit]


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
def test_write_killed_mid_way_leaves_no_old_byte(tmp_path):
    """A process killed after its first write over a longer file leaves
    that write's bytes and none of the old file after them."""
    out = tmp_path / "out.csv"
    out.write_bytes(b"old\n" * 5000)
    program = (
        "import os, signal, sys\n"
        "from causalbn.cli import main\n"
        "write = os.write\n"
        "def write_then_die(fd, data):\n"
        "    write(fd, bytes(data[:1000]))\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "os.write = write_then_die\n"
        f"sys.exit(main(['sample', 'modelD', '-n', '5000', '--seed', '3', '--out', {str(out)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(causalbn.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", program], env=env, timeout=120)
    assert child.returncode == -signal.SIGKILL
    expected = forward_sample(load_model("modelD"), 5000, 3).to_csv().encode("utf-8")
    assert out.read_bytes() == expected[:1000]


def test_library_calls_print_nothing(capfd):
    # only the cli.cmd_* handlers print; a library call that wrote to
    # stdout would corrupt the output of a caller that captures it
    results = latent.bias_scan(
        load_model("modelD"), {"u": [0.0, 0.5], "w|u=1": [0.3, 0.9]}, "Z", "Y", "X"
    )
    latent.scan_summary(results)
    latent.scan_to_csv(results)
    net = load_model("fig2_model1")
    for mode in ("graphical", "distributional"):
        intervention.select_sufficient_confounders(net, "Z", "Y", mode=mode)
    intervention.effect_report(load_model("modelB"), "Z", "Y", ["X"])
    forward_sample(load_model("fig1_left"), 100, 1).to_csv()
    assert capfd.readouterr().out == ""


def test_every_error_type_has_its_exit_code():
    def walk(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from walk(sub)

    assert {cls.__name__: cls.exit_code for cls in walk(errors.CausalbnError)} == {
        "CausalbnError": 4,
        "CycleError": 3,
        "UnknownNode": 4,
        "UnknownVariable": 4,
        "ValidationError": 3,
        "SizeCapExceeded": 4,
        "ZeroProbabilityEvidence": 4,
        "EmptyDataset": 4,
        "PositivityViolation": 4,
        "ParseError": 3,
        "InfeasibleEndpoints": 4,
        "DegenerateEndpoints": 4,
        "DomainError": 4,
        "StructureError": 4,
    }


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    def test_call_sequence_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        outputs = ("a.csv", "b.csv", "s.csv")
        scan_a, scan_b, sample = (str(tmp_path / n) for n in outputs)
        calls = [
            ["query", "fig1_left", "--target", "Y", "--given", "Z=1"],
            ["do", "modelD", "--target", "Y", "--do", "Z=1"],
            ["ace", "modelB", "--treatment", "Z", "--outcome", "Y"],
            ["adjust", "fig1_left", "--treatment", "Z", "--outcome", "Y", "--set", "X"],
            ["scan", "modelD", "--param", "u=0.2:0.8:0.3",
             "--param", "w|u=1=0.3:0.9:0.3", "--out", scan_a],
            ["dsep", "modelB", "--a", "Z", "--b", "W", "--given", "X"],
            ["query", "fig1_left"],  # usage error: exit 2
            ["backdoor", "modelB", "--treatment", "Z", "--outcome", "Y", "--set", "X"],
            ["select", "fig2_model1", "--treatment", "Z", "--outcome", "Y", "--mode", "dist"],
            ["bias", "modelB", "--treatment", "Z", "--outcome", "Y", "--covariate", "X"],
            ["query", "no_such_model", "--target", "Y"],
            ["scan", "modelD", "--param", "u=0.1:0.5:0.2", "--out", scan_b],
            ["decompose", "--py", "0.3", "--pyp", "0.6"],
            ["corr", "--r1", "0.8", "--r2", "0.7", "--r3", "0.0"],
            ["sample", "fig1_left", "-n", "50", "--seed", "4", "--out", sample],
        ]

        def run_all():
            replies = [_run(capsys, argv) for argv in calls]
            files = [(tmp_path / n).read_text(encoding="utf-8") for n in outputs]
            return replies, files

        shared = run_all()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser per call
        fresh = run_all()
        assert shared == fresh
        codes = [code for code, _, _ in shared[0]]
        assert codes == [0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 3, 0, 0, 1, 0]
        first, second = (text.splitlines() for text in shared[1][:2])
        assert first[0].startswith("u,w|u=1,dep_zx") and len(first) == 1 + 3 * 3
        assert second[0].startswith("u,dep_zx") and len(second) == 1 + 3


def _reference_main(argv):
    """``main`` as two parser passes: the top-level parser, then the handler."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.CausalbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


class TestDispatch:
    """``main`` answers every input as the top-level parser does."""

    CORPUS = [
        ["query", "fig1_left", "--target", "Y", "--given", "Z=1"],
        ["do", "modelD", "--target", "Y", "--do", "Z=1"],
        ["ace", "modelB", "--treatment", "Z", "--outcome", "Y", "--z1", "1", "--z0", "0"],
        ["adjust", "fig1_left", "--treatment", "Z", "--outcome", "Y", "--set", "X"],
        ["adjust", "fig1_left", "--treatment", "Z", "--outcome", "Y", "--set", ""],
        ["dsep", "modelB", "--a", "Z", "--b", "W", "--given", "X"],
        ["backdoor", "modelB", "--treatment", "Z", "--outcome", "Y", "--set", "X"],
        ["backdoor", "modelB", "--treatment", "Z", "--outcome", "Y", "--set", ""],
        ["select", "fig2_model1", "--treatment", "Z", "--outcome", "Y", "--mode", "dist"],
        ["bias", "modelB", "--treatment", "Z", "--outcome", "Y", "--covariate", "X"],
        ["scan", "modelD", "--param", "u=0.2:0.8:0.3", "--out", "TMP/scan.csv"],
        ["decompose", "--py", "0.3", "--pyp", "0.6"],
        ["corr", "--r1", "0.8", "--r2", "0.7", "--r3", "0.0"],
        ["sample", "fig1_left", "-n", "20", "--seed", "4", "--out", "TMP/sample.csv"],
        # help, before and after the command
        ["-h"],
        ["--help"],
        ["-h", "query"],
        ["--help", "corr"],
        ["query", "-h"],
        ["scan", "--help"],
        ["select", "fig2_model1", "--treatment", "Z", "--help"],
        # usage errors
        ["query", "fig1_left"],
        ["corr", "--r1", "0.5"],
        ["select", "fig2_model1", "--treatment", "Z", "--outcome", "Y", "--mode", "both"],
        ["query", "fig1_left", "--target", "Y", "--foo", "1"],
        ["ace", "modelB", "--treatment", "Z", "--outcome", "Y", "extra"],
        ["sample", "fig1_left", "-n", "x", "--seed", "1", "--out", "TMP/bad.csv"],
        ["bias", "modelB", "--treatment", "Z", "--outcome", "Y", "--covariate", "X",
         "--z", "1"],
        ["query", "fig1_left", "--target"],
        # spellings of an option or its value
        ["query", "fig1_left", "--target", "Y", "--given=Z=1"],
        ["query", "--target", "Y", "--", "fig1_left"],
        ["ace", "modelB", "--treat", "Z", "--outcome", "Y"],
        ["sample", "fig1_left", "-n20", "--seed=4", "--out", "TMP/sample.csv"],
        ["corr", "--r1", "-0.5", "--r2", "-0.3"],
        ["corr", "--r1", "0.8", "--r2", "-0.7", "--r3", "-0.1"],
        ["decompose", "--py", "0.3", "--pyp", "0.6", "--lo", "-0.5"],
        ["corr", "--r1", "-.5", "--r2", "0.1", "--r1", "0.2"],
        ["query", "--target", "Y", "fig1_left"],
        ["query", "-5", "--target", "Y"],
        ["query", "-", "--target", "Y"],
        ["dsep", "modelB", "--a", "--b", "W"],
        ["select", "fig2_model1", "--treatment", "Z", "--outcome", "Y", "--mode", "dist",
         "--mode", "graph"],
        ["scan", "modelD", "--param", "u=0.2:0.8:0.3", "--param", "w|u=1=0.3:0.9:0.3",
         "--out", "TMP/scan.csv"],
        ["sample", "fig1_left", "-n", "1e1", "--seed", "4", "--out", "TMP/sample.csv"],
        # no command, or one that is not known
        [],
        ["frobnicate", "x"],
        ["que", "fig1_left", "--target", "Y"],
        ["--target", "Y"],
        # errors the handlers raise
        ["query", "no_such_model", "--target", "Y"],
        ["dsep", "fig1_left", "--a", "", "--b", "Y"],
    ]

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_same_reply_as_the_top_level_parser(self, tmp_path, capsys, argv):
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        replies = []
        for run in (main, _reference_main):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            written = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            replies.append((code, captured.out, captured.err, written))
        assert replies[0] == replies[1]

    def test_a_valid_request_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        cli._parser()
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        negative = [
            ["corr", "--r1", "-0.5", "--r2", "-0.3"],
            ["decompose", "--py", "0.3", "--pyp", "0.6", "--lo", "-0.5"],
        ]
        for argv in WELL_FORMED + negative:
            main([arg.replace("TMP", str(tmp_path)) for arg in argv])
        assert calls == []
        # leftovers are reported by one pass of the top-level parser
        with pytest.raises(SystemExit):
            main(["dsep", "modelB", "--a", "Z", "--b", "W", "--foo"])
        assert calls == ["causalbn", "causalbn dsep"]
        assert "causalbn: error: unrecognized arguments: --foo" in capsys.readouterr().err


#: SHA-256 of the exit code and stdout of ``causalbn --help`` and of
#: ``causalbn SUB --help`` for every subcommand at 80 columns, computed while
#: ``build_parser`` still spelled out each ``add_argument`` call
HELP_DIGEST = "08d71ab79b5656f92c2c5447c150e5d7c2daf2a0a82f50804824f1e8f0e26cfd"
SUBCOMMANDS = [
    "query", "do", "ace", "adjust", "dsep", "backdoor", "select", "bias", "scan",
    "decompose", "corr", "sample",
]


def test_help_texts_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in [["--help"], *([name, "--help"] for name in SUBCOMMANDS)]:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        digest.update(f"{' '.join(argv)} {exit_.value.code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == HELP_DIGEST


#: one well-formed request per subcommand; ``TMP`` stands for a scratch directory
WELL_FORMED = [
    ["query", "fig1_left", "--target", "Y", "--given", "Z=1"],
    ["do", "modelD", "--target", "Y", "--do", "Z=1"],
    ["ace", "modelB", "--treatment", "Z", "--outcome", "Y", "--z1", "1", "--z0", "0"],
    ["adjust", "fig1_left", "--treatment", "Z", "--outcome", "Y", "--set", "X"],
    ["dsep", "modelB", "--a", "Z", "--b", "W", "--given", "X"],
    ["backdoor", "modelB", "--treatment", "Z", "--outcome", "Y", "--set", "X"],
    ["select", "fig2_model1", "--treatment", "Z", "--outcome", "Y", "--mode", "graph"],
    ["bias", "modelB", "--treatment", "Z", "--outcome", "Y", "--covariate", "X"],
    ["scan", "modelD", "--param", "u=0.2:0.8:0.3", "--out", "TMP/scan.csv"],
    ["decompose", "--py", "0.3", "--pyp", "0.6"],
    ["corr", "--r1", "0.8", "--r2", "0.7", "--r3", "0.0"],
    ["sample", "fig1_left", "-n", "20", "--seed", "4", "--out", "TMP/sample.csv"],
]


def _subcommands(parser):
    (command,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return command.choices


#: values: names, numbers, negative and malformed numbers
VALUES = [
    "", "-5", "-0.5", "-.5", "-1-", "1e", "0x1", "nan", "inf", "1_0", "20", "0", "1",
    "0.3", "0.6", "Y", "Z", "X", "W", "Q", "Z=1", "fig1_left", "modelB", "modelD",
    "graph", "dist", "fast", "u=0.2:0.8:0.3", "w|u=1=0.3:0.9:0.3", "TMP/out.csv", "-a b",
]
#: the values, every subcommand name and option string, and other spellings
TOKENS = sorted(
    {
        *VALUES,
        *_subcommands(build_parser()),
        *(s for sub in _subcommands(build_parser()).values() for s in sub._option_string_actions),
        "que", "frobnicate", "--tar", "--treat", "--o", "--out", "--cov", "--p", "--par",
        "--mo", "--r", "--target=Y", "--given=Z=1", "--seed=4", "--mode=dist", "-n20",
        "-h", "--help", "--", "-", "--5",
    }
)


@st.composite
def mutated_requests(draw):
    """A well-formed request with a few tokens after its command inserted,
    or replaced by a value, or deleted, or one of its command's options
    added with a value (so options repeat)."""
    argv = list(draw(st.sampled_from(WELL_FORMED)))
    options = sorted(_subcommands(cli._parser())[argv[0]]._option_string_actions)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(["insert", "pair", "replace", "delete"]))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(TOKENS)))
        elif edit == "pair":
            argv += [draw(st.sampled_from(options)), draw(st.sampled_from(VALUES))]
        elif i < len(argv):
            argv[i : i + 1] = [draw(st.sampled_from(VALUES))] if edit == "replace" else []
    return argv


class TestTable:
    """A request the table takes is the Namespace the top-level parser
    gives; every request gets the reply of two parser passes."""

    def test_the_table_is_the_parser(self):
        subcommands = set(_subcommands(build_parser()))
        assert set(cli._COMMANDS) == subcommands == {argv[0] for argv in WELL_FORMED}
        for argv in WELL_FORMED:
            assert cli._take(argv) == cli._parser().parse_args(argv) is not None

    def test_negative_numbers_as_argparse_reads_them(self):
        # a private read, so that an interpreter with another rule fails here
        matcher = argparse.ArgumentParser()._negative_number_matcher
        assert cli._NEGATIVE.pattern == matcher.pattern

    @settings(max_examples=300)
    @given(mutated_requests())
    def test_same_namespace_and_reply_as_two_parser_passes(self, tmp_path_factory, argv):
        scratch = tmp_path_factory.mktemp("table")
        argv = [arg.replace("TMP", str(scratch)) for arg in argv]
        taken = cli._take(argv)
        if taken is not None:
            assert taken == cli._parser().parse_args(argv)
        replies = []
        for run in (main, _reference_main):
            for path in scratch.iterdir():
                path.unlink()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
            written = {p.name: p.read_bytes() for p in sorted(scratch.iterdir())}
            replies.append((code, out.getvalue(), err.getvalue(), written))
        assert replies[0] == replies[1]


#: SHA-256 of ``select`` output, both modes, every bundled model and ordered
#: node pair, computed before the selection joint was hoisted out of the
#: per-test loop
SELECT_DIGEST = "b160746d5949bb9f726d2c960c6c3750ad77e057263b5db1481c982e6ce2153a"


def test_select_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for model in BUNDLED_MODELS:
        for t, o in itertools.permutations(load_model(model).dag.nodes, 2):
            for mode in ("dist", "graph"):
                argv = ["select", model, "--treatment", t, "--outcome", o, "--mode", mode]
                code = main(argv)
                assert code == 0
                digest.update(f"{model} {t} {o} {mode} {code}\n".encode())
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SELECT_DIGEST


#: SHA-256 of the exit code and stdout of every ``query`` and ``do`` call
#: below, computed while both still contracted the full joint.  Re-pinned
#: when ``do --do ""`` began to exit 3: each of the 33 such calls (one per
#: target) lost its stdout and changed its code from 0 to 3, and no other
#: line of the hashed stream changed.
QUERY_DO_DIGEST = "41cfa67ae4ed7a0912adf92aa16560daa0824c46e6d87bfeef0a9f981dbe6987"


def test_query_and_do_output_is_pinned(capsys):
    # every target, every set of 0-2 other nodes, every state assignment
    digest = hashlib.sha256()
    for model in BUNDLED_MODELS:
        net = load_model(model)
        for target in net.dag.nodes:
            rest = [v for v in net.dag.nodes if v != target]
            for size in range(3):
                for s in itertools.combinations(rest, size):
                    for cfg in itertools.product(*(net.variables[v].states for v in s)):
                        assign = ",".join(f"{v}={x}" for v, x in zip(s, cfg))
                        for cmd, flag in (("query", "--given"), ("do", "--do")):
                            argv = [cmd, model, "--target", target, flag, assign]
                            code = main(argv)
                            digest.update(f"{' '.join(argv)} {code}\n".encode())
                            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == QUERY_DO_DIGEST


#: SHA-256 of the exit code and stdout of every ``bias`` and ``adjust`` call
#: below.  Re-pinned when ``adjusted_estimate`` and ``interventional_distribution``
#: began to contract only the variables they need: 121 of the 926 calls print
#: a number that moved by at most 2.2e-16, and no label or exit code changed.
BIAS_ADJUST_DIGEST = "8f00220b99aa0ea3319bba121e00f11304c03c1cd26242ea5dcf94d57a4cb04d"


def test_bias_and_adjust_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for model in BUNDLED_MODELS:
        nodes = load_model(model).dag.nodes
        for t, o, c in itertools.permutations(nodes, 3):
            argv = ["bias", model, "--treatment", t, "--outcome", o, "--covariate", c]
            code = main(argv)
            digest.update(f"{' '.join(argv)} {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
        for t, o in itertools.permutations(nodes, 2):
            rest = [v for v in nodes if v not in (t, o)]
            for size in range(3):
                for s in itertools.combinations(rest, size):
                    argv = ["adjust", model, "--treatment", t, "--outcome", o, "--set", ",".join(s)]
                    code = main(argv)
                    digest.update(f"{' '.join(argv)} {code}\n".encode())
                    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BIAS_ADJUST_DIGEST


def test_warm_tables_give_the_pinned_bytes(capsys, monkeypatch):
    """The two pinned call sets, run twice in one process, hash to their
    pinned digests both times, and the second run contracts nothing."""
    contractions = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        contractions.append(1)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    # fresh bundled networks, so the first run starts with no kept tables
    modelfile._bundled_model.cache_clear()
    pinned = (test_query_and_do_output_is_pinned, test_bias_and_adjust_output_is_pinned)
    for check in pinned:
        check(capsys)
    assert contractions
    contractions.clear()
    for check in pinned:
        check(capsys)
    assert not contractions


def test_every_pinned_corpus_holds_when_warm(capsys, monkeypatch):
    """Every pinned-digest corpus, run on fresh bundled networks and then
    again in the same process, gives its digest both times, and the second
    run keeps fewer new answers than the first: it reads what the first
    kept.  The help, scan and sampling corpora keep no answer (a scan cell
    is a new network), so they are only run twice."""
    import test_acceptance
    import test_bayesnet
    import test_latent

    store = []
    put = bayesnet._Tables.put

    def counting(self, *args):
        store.append(1)
        return put(self, *args)

    monkeypatch.setattr(bayesnet._Tables, "put", counting)
    modelfile._bundled_model.cache_clear()
    kept = (
        test_select_output_is_pinned,
        test_query_and_do_output_is_pinned,
        test_bias_and_adjust_output_is_pinned,
    )
    unkept = (
        lambda: test_help_texts_are_pinned(monkeypatch, capsys),
        test_acceptance.test_criterion_9_scan_determinism_and_report,
        test_latent.TestBiasScan().test_repeated_scans_identical_and_pinned,
        test_bayesnet.TestSamplingReference().test_pinned_digest,
    )
    puts = []
    for _ in range(2):
        store.clear()
        for check in kept:
            check(capsys)
        puts.append(len(store))
        for check in unkept:
            check()
        capsys.readouterr()  # what they print is not part of a digest
    assert puts[1] < puts[0]
