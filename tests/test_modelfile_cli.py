import json

import numpy as np
import pytest

from causalbn.cli import main
from causalbn.errors import ParseError
from causalbn.modelfile import (
    BUNDLED_MODELS,
    bundled_model_text,
    load_model,
    parse_model,
    serialize_model,
)


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

    def test_scan_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(
            [
                "scan", "--template", "modelD",
                "--param", "u=0.2:0.8:0.3",
                "--param", "w|u=1=0.3:0.9:0.3",
                "--out", str(out),
            ]
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("u,w|u=1,dep_zx")
        assert len(text.splitlines()) == 1 + 3 * 3
        assert "condition wins" in capsys.readouterr().out

    def test_byte_identical_output(self, capsys):
        main(["ace", "modelB", "--treatment", "Z", "--outcome", "Y"])
        first = capsys.readouterr().out
        main(["ace", "modelB", "--treatment", "Z", "--outcome", "Y"])
        assert capsys.readouterr().out == first
