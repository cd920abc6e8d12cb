"""CLI coverage for the model registry: --model, models, compare."""

import json

import pytest

from repro.cli import build_parser, main

CORPUS_ARGS = ["--users", "900", "--background-stories", "25", "--seed", "1234"]


class TestParser:
    def test_model_defaults(self):
        assert build_parser().parse_args(["predict"]).model == "dl"
        assert build_parser().parse_args(["predict-batch"]).model == "dl"
        assert build_parser().parse_args(["daemon"]).model == "dl"
        # serve-batch / submit default to None so only an explicit flag
        # overrides the manifest's model fields.
        serve = build_parser().parse_args(["serve-batch", "--manifest", "m.json"])
        assert serve.model is None
        submit = build_parser().parse_args(
            ["submit", "--connect", "s", "--manifest", "m.json"]
        )
        assert submit.model is None

    def test_unknown_model_accepted_by_parser(self):
        # Models are validated against the live registry at run time
        # (mirroring --backend), not by argparse choices.
        args = build_parser().parse_args(["predict", "--model", "quantum"])
        assert args.model == "quantum"

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.models == ["dl", "logistic", "sis"]
        assert args.stories == ["s1", "s2", "s3", "s4"]
        assert args.hours == 6
        assert args.json is None

    def test_daemon_stats_prometheus_flag(self):
        args = build_parser().parse_args(["daemon-stats", "--connect", "s"])
        assert args.prometheus is False
        args = build_parser().parse_args(
            ["daemon-stats", "--connect", "s", "--prometheus"]
        )
        assert args.prometheus is True


class TestUnknownModelExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--model", "frobnicate"],
            ["predict-batch", "--model", "frobnicate"],
            ["compare", "--models", "dl", "frobnicate"],
            ["daemon", "--model", "frobnicate"],
        ],
    )
    def test_unknown_model_exits_2_with_registered_list(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown model 'frobnicate'" in err
        assert "'dl'" in err and "'logistic'" in err

    def test_serve_batch_unknown_model_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"stories": []}))
        assert main(
            ["serve-batch", "--manifest", str(manifest), "--model", "frobnicate"]
        ) == 2
        assert "unknown model" in capsys.readouterr().err


class TestModelsCommand:
    def test_lists_registered_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("dl", "logistic", "sis", "linear-influence"):
            assert name in out
        assert "Registered prediction models" in out


class TestPredictWithBaselineModel:
    def test_predict_logistic_prints_model_tagged_table(self, capsys):
        code = main(
            ["predict", *CORPUS_ARGS, "--hours", "4", "--model", "logistic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(logistic model)" in out
        assert "ModelParameters(model='logistic'" in out

    def test_predict_batch_json_carries_model(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(
            [
                "predict-batch",
                *CORPUS_ARGS,
                "--hours",
                "4",
                "--stories",
                "s1",
                "--model",
                "logistic",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["model"] == "logistic"
        story = payload["stories"]["s1"]
        assert story["model"] == "logistic"
        assert story["parameters"]["model"] == "logistic"


class TestCompareCommand:
    def test_head_to_head_table_and_json(self, tmp_path, capsys):
        path = tmp_path / "compare.json"
        code = main(
            [
                "compare",
                *CORPUS_ARGS,
                "--stories",
                "s1",
                "--hours",
                "4",
                "--models",
                "logistic",
                "sis",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Head-to-head accuracy" in out
        assert "logistic" in out and "sis" in out
        payload = json.loads(path.read_text())
        assert set(payload["models"]) == {"logistic", "sis"}
        for entry in payload["models"].values():
            assert 0.0 <= entry["overall_accuracy"] <= 1.0
