"""Tests for the command-line interface."""

import json

import pytest

from repro.cascade.dataset import CascadeDataset
from repro.cli import build_parser, main
from repro.service.service import DEFAULT_MAX_SHARD_SIZE, DEFAULT_QUEUE_DEPTH

# Small, fast corpus arguments reused by every CLI invocation in these tests.
CORPUS_ARGS = ["--users", "900", "--background-stories", "25", "--seed", "1234"]


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["predict"])
        assert args.story == "s1"
        assert args.metric == "hops"
        assert args.hours == 6
        assert args.seed == 2009
        assert args.backend == "internal"

    def test_predict_batch_defaults(self):
        args = build_parser().parse_args(["predict-batch"])
        assert args.stories == ["s1", "s2", "s3", "s4"]
        assert args.metric == "hops"
        assert args.hours == 6
        assert args.backend == "internal"
        assert args.json is None

    def test_unknown_backend_accepted_by_parser(self):
        # Backend names are validated against the live registry when the
        # command runs (backends can be registered at runtime), not by
        # argparse choices.
        args = build_parser().parse_args(["predict", "--backend", "cuda"])
        assert args.backend == "cuda"

    def test_serve_batch_defaults(self):
        args = build_parser().parse_args(["serve-batch", "--manifest", "m.json"])
        assert args.manifest == "m.json"
        assert args.workers is None  # the executor's default pool size
        assert args.queue_depth == 128
        assert args.shard_size == 32
        assert args.hours is None
        assert args.output is None
        # Corpus flags default to "not given" so only explicit values
        # override the manifest's corpus block.
        assert args.users is None
        assert args.background_stories is None
        assert args.seed is None
        assert args.horizon is None

    def test_serve_batch_explicit_corpus_flags_parse(self):
        args = build_parser().parse_args(
            ["serve-batch", "--manifest", "m.json", "--seed", "7", "--users", "500"]
        )
        assert args.seed == 7
        assert args.users == 500

    def test_predict_batch_story_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict-batch", "--stories", "s1", "s9"])

    def test_hours_window_validated(self):
        # Calibration needs hour 1 (phi) plus at least one target hour, so a
        # window shorter than 2 must fail at the parser, not as a traceback.
        for command in ("predict", "predict-batch"):
            for hours in ("1", "0", "-3"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--hours", hours])

    def test_story_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--story", "s9"])

    def test_metric_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--metric", "euclidean"])


class TestBuildCorpus:
    def test_writes_loadable_json(self, tmp_path, capsys):
        output = tmp_path / "corpus.json"
        exit_code = main(["build-corpus", *CORPUS_ARGS, "--output", str(output)])
        assert exit_code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["num_users"] == 900
        dataset = CascadeDataset.from_json_dict(payload)
        assert dataset.num_stories == 4 + 25


class TestCharacterize:
    def test_prints_density_surface_and_saturation(self, capsys):
        exit_code = main(["characterize", *CORPUS_ARGS, "--story", "s1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Distribution of users" in out
        assert "Density of influenced users, s1, hops" in out
        assert "saturation time" in out

    def test_interest_metric(self, capsys):
        exit_code = main(["characterize", *CORPUS_ARGS, "--story", "s1", "--metric", "interests"])
        assert exit_code == 0
        assert "interests" in capsys.readouterr().out


class TestPredict:
    def test_prints_accuracy_table(self, capsys):
        exit_code = main(["predict", *CORPUS_ARGS, "--story", "s1", "--hours", "4"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Prediction accuracy" in out
        assert "Overall average accuracy" in out
        assert "calibrated parameters" in out

    def test_fails_cleanly_when_first_hour_is_empty(self, capsys):
        # Story s4 on the small corpus has no votes in its first hour, so the
        # CLI must exit with an error message rather than a traceback.
        exit_code = main(["predict", *CORPUS_ARGS, "--story", "s4", "--hours", "4"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "first observed hour" in captured.err

    def test_unknown_backend_exits_with_registered_list(self, capsys):
        # The message comes from the engine's registry error path, so it must
        # name the offending backend and list every registered one.
        exit_code = main(["predict", *CORPUS_ARGS, "--backend", "cuda"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert "cuda" in captured.err
        for registered in ("'internal'", "'scipy'"):
            assert registered in captured.err

    def test_runtime_registered_backend_accepted(self, capsys):
        # A backend registered after import must be usable from the CLI --
        # the reason --backend is not an argparse choices list.
        from repro.numerics.backends import BACKENDS, InternalBackend

        BACKENDS.register("cli-test-backend", InternalBackend)
        try:
            exit_code = main(
                ["predict", *CORPUS_ARGS, "--hours", "3", "--backend", "cli-test-backend"]
            )
        finally:
            BACKENDS.unregister("cli-test-backend")
        assert exit_code == 0
        assert "Prediction accuracy" in capsys.readouterr().out


class TestPredictBatch:
    def test_prints_summary_and_writes_json(self, tmp_path, capsys):
        output = tmp_path / "batch.json"
        exit_code = main(
            [
                "predict-batch",
                *CORPUS_ARGS,
                "--stories",
                "s1",
                "--hours",
                "4",
                "--json",
                str(output),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Prediction accuracy" in out
        assert "overall accuracy" in out
        payload = json.loads(output.read_text())
        assert payload["stories"]["s1"]["overall_accuracy"] > 0.0
        assert payload["backend"] == "internal"
        assert "operator" not in payload

    def test_json_parameters_are_structured_numbers(self, tmp_path, capsys):
        # The payload must round-trip through json.loads with numeric
        # parameter fields -- never a Python repr string.
        output = tmp_path / "batch.json"
        exit_code = main(
            ["predict-batch", *CORPUS_ARGS, "--stories", "s1", "--hours", "4",
             "--json", str(output)]
        )
        assert exit_code == 0
        parameters = json.loads(output.read_text())["stories"]["s1"]["parameters"]
        assert isinstance(parameters, dict)
        assert isinstance(parameters["d"], float)
        assert isinstance(parameters["K"], float)
        assert parameters["d"] > 0 and parameters["K"] > 0
        rate = parameters["r"]
        assert rate["type"] == "exponential_decay"
        for field in ("amplitude", "decay", "floor", "reference_time"):
            assert isinstance(rate[field], float)
        # The repr stays in the human-readable summary.
        assert "DLParameters(" in capsys.readouterr().out

    def test_operator_option_is_gone(self, capsys):
        # The Crank-Nicolson factorization is not a command-line choice.
        with pytest.raises(SystemExit) as exit_info:
            main(["predict-batch", *CORPUS_ARGS, "--operator", "banded"])
        assert exit_info.value.code == 2
        assert "--operator" in capsys.readouterr().err

    def test_sequential_calibration_option_is_gone(self, capsys):
        # One calibration protocol: nothing on the command line selects one.
        with pytest.raises(SystemExit) as exit_info:
            main(["predict-batch", *CORPUS_ARGS, "--sequential-calibration"])
        assert exit_info.value.code == 2
        assert "--sequential-calibration" in capsys.readouterr().err

    def test_skips_empty_stories_and_reports_them(self, capsys):
        # s4 has no votes in its first hour on the small corpus; the batch
        # command warns and continues with the stories that have data.
        exit_code = main(
            ["predict-batch", *CORPUS_ARGS, "--stories", "s1", "s4", "--hours", "4"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "skipping s4" in captured.err
        assert "s1" in captured.out

    def test_all_skipped_suggests_other_metric(self, capsys):
        # Both requested stories are empty in hour 1 on this corpus: the
        # error must be the all-skipped message, not the empty-list one.
        exit_code = main(
            ["predict-batch", *CORPUS_ARGS, "--stories", "s4", "--hours", "4"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "every requested story is empty" in captured.err


class TestServeBatch:
    CORPUS_BLOCK = {"users": 900, "background_stories": 25, "seed": 1234}

    def test_streams_json_lines_matching_predict_batch(self, tmp_path, capsys):
        # serve-batch must produce per-story results identical to the
        # synchronous predict-batch path on the same corpus.
        reference_path = tmp_path / "reference.json"
        assert (
            main(["predict-batch", *CORPUS_ARGS, "--stories", "s1", "--hours", "4",
                  "--json", str(reference_path)])
            == 0
        )
        capsys.readouterr()
        manifest = write_manifest(
            tmp_path, {"hours": 4, "corpus": self.CORPUS_BLOCK, "stories": ["s1"]}
        )
        exit_code = main(["serve-batch", *CORPUS_ARGS, "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(lines) == 1
        (record,) = lines
        assert record["story"] == "s1"
        assert record["status"] == "succeeded"
        reference = json.loads(reference_path.read_text())["stories"]["s1"]
        assert record["overall_accuracy"] == reference["overall_accuracy"]
        assert record["parameters"] == reference["parameters"]
        assert record["accuracy_by_distance"] == reference["accuracy_by_distance"]
        assert "scored 1/1" in captured.err

    def test_inline_manifest_needs_no_corpus(self, tmp_path, capsys):
        inline = {
            "name": "cascade-1",
            "distances": [1, 2, 3, 4, 5],
            "times": [1, 2, 3, 4],
            "values": [
                [5.0, 2.0, 2.5, 1.5, 1.0],
                [7.0, 3.0, 3.5, 2.0, 1.4],
                [9.0, 4.2, 4.6, 2.6, 1.9],
                [11.0, 5.5, 5.8, 3.3, 2.5],
            ],
        }
        manifest = write_manifest(tmp_path, {"hours": 4, "stories": [inline]})
        output = tmp_path / "results.ndjson"
        exit_code = main(
            ["serve-batch", "--manifest", manifest, "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        record = json.loads(captured.out.strip())
        assert record["story"] == "cascade-1"
        assert record["status"] == "succeeded"
        assert isinstance(record["parameters"]["d"], float)
        # --output mirrors the streamed lines.
        assert json.loads(output.read_text().strip()) == record

    def test_workers_default_to_the_executor(self, tmp_path, capsys):
        inline = {
            "name": "cascade-1",
            "distances": [1, 2, 3, 4, 5],
            "times": [1, 2, 3, 4],
            "values": [
                [5.0, 2.0, 2.5, 1.5, 1.0],
                [7.0, 3.0, 3.5, 2.0, 1.4],
                [9.0, 4.2, 4.6, 2.6, 1.9],
                [11.0, 5.5, 5.8, 3.3, 2.5],
            ],
        }
        manifest = write_manifest(tmp_path, {"hours": 4, "stories": [inline]})
        for executor, expected in (("thread", 1), ("process", 4)):
            exit_code = main(
                ["serve-batch", "--manifest", manifest, "--model", "logistic",
                 "--executor", executor]
            )
            captured = capsys.readouterr()
            assert exit_code == 0
            assert f"{expected} {executor} workers" in captured.err

    def test_process_executor_matches_thread_run(self, tmp_path, capsys):
        inline = {
            "name": "cascade-1",
            "distances": [1, 2, 3, 4, 5],
            "times": [1, 2, 3, 4],
            "values": [
                [5.0, 2.0, 2.5, 1.5, 1.0],
                [7.0, 3.0, 3.5, 2.0, 1.4],
                [9.0, 4.2, 4.6, 2.6, 1.9],
                [11.0, 5.5, 5.8, 3.3, 2.5],
            ],
        }
        manifest = write_manifest(tmp_path, {"hours": 4, "stories": [inline]})
        assert main(["serve-batch", "--manifest", manifest]) == 0
        reference = json.loads(capsys.readouterr().out.strip())
        exit_code = main(
            ["serve-batch", "--manifest", manifest, "--executor", "process",
             "--workers", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2 process workers" in captured.err
        # JSON floats round-trip exactly: the whole record must compare equal.
        assert json.loads(captured.out.strip()) == reference

    def test_unknown_executor_exits_with_registered_list(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {"hours": 4, "stories": []})
        exit_code = main(
            ["serve-batch", "--manifest", manifest, "--executor", "frobnicate"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert "frobnicate" in captured.err
        for registered in ("'thread'", "'process'"):
            assert registered in captured.err

    def test_empty_manifest_exits_with_distinct_message(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {"stories": []})
        exit_code = main(["serve-batch", "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "contains no stories" in captured.err
        # The all-skipped suggestion would mislead here.
        assert "try a different metric or seed" not in captured.err

    def test_all_skipped_manifest_suggests_other_metric(self, tmp_path, capsys):
        # s4 is empty in hour 1 on the small corpus (see TestPredictBatch).
        manifest = write_manifest(
            tmp_path, {"hours": 4, "corpus": self.CORPUS_BLOCK, "stories": ["s4"]}
        )
        exit_code = main(["serve-batch", *CORPUS_ARGS, "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "skipping s4" in captured.err
        assert "every story in the manifest is empty" in captured.err
        assert "try a different metric or seed" in captured.err
        # Skipped stories get a machine-readable record too.
        (record,) = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert record == {
            "story": "s4",
            "status": "skipped",
            "model": "dl",
            "reason": "no influenced users at any distance in the first observed hour",
        }

    def test_invalid_pool_bounds_exit_cleanly(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, {"hours": 4, "corpus": self.CORPUS_BLOCK, "stories": ["s1"]}
        )
        for flag in ("--workers", "--queue-depth", "--shard-size"):
            exit_code = main(["serve-batch", "--manifest", manifest, flag, "0"])
            captured = capsys.readouterr()
            assert exit_code == 2
            assert f"{flag} must be >= 1" in captured.err

    def test_inline_story_missing_training_anchor_exits_cleanly(self, tmp_path, capsys):
        late = {
            "name": "late",
            "distances": [1, 2, 3],
            "times": [2, 3, 4],
            "values": [[5.0, 2.0, 1.0]] * 3,
        }
        manifest = write_manifest(tmp_path, {"hours": 4, "stories": [late]})
        exit_code = main(["serve-batch", "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "training hour" in captured.err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        exit_code = main(["serve-batch", "--manifest", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "does not exist" in captured.err

    def test_invalid_manifest_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {"stories": ["s1"]})  # no corpus block
        exit_code = main(["serve-batch", "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")

    def test_partial_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # One story scores, one fails its fit: batch pipelines need a
        # distinct exit code (3) for partial failure -- 0 would hide the
        # failure, 1 means nothing scored, 2 means bad configuration.
        from repro.core.prediction import BatchPredictor

        original = BatchPredictor._fit_story

        # _fit_story is what fit_story and the shard path's fit_shard share.
        def failing(self, name, observed, training_times=None, calibrated=None):
            if name == "doomed":
                raise ValueError("synthetic per-story fit failure")
            return original(self, name, observed, training_times, calibrated)

        monkeypatch.setattr(BatchPredictor, "_fit_story", failing)
        inline = {
            "distances": [1, 2, 3, 4, 5],
            "times": [1, 2, 3, 4],
            "values": [
                [5.0, 2.0, 2.5, 1.5, 1.0],
                [7.0, 3.0, 3.5, 2.0, 1.4],
                [9.0, 4.2, 4.6, 2.6, 1.9],
                [11.0, 5.5, 5.8, 3.3, 2.5],
            ],
        }
        manifest = write_manifest(
            tmp_path,
            {
                "hours": 4,
                "stories": [
                    {"name": "good", **inline},
                    {"name": "doomed", **inline},
                ],
            },
        )
        exit_code = main(["serve-batch", "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 3
        records = {
            record["story"]: record
            for record in map(json.loads, captured.out.strip().splitlines())
        }
        assert records["good"]["status"] == "succeeded"
        assert records["doomed"]["status"] == "failed"
        assert "synthetic per-story fit failure" in records["doomed"]["error"]
        assert "exiting 3 (partial failure)" in captured.err

    def test_total_failure_exits_1_not_3(self, tmp_path, capsys, monkeypatch):
        # Exit 3 promises usable partial results; when *every* story failed
        # there are none, so the exit code must stay 1.
        from repro.core.prediction import BatchPredictor

        def failing(self, name, observed, training_times=None, calibrated=None):
            raise ValueError("synthetic per-story fit failure")

        monkeypatch.setattr(BatchPredictor, "_fit_story", failing)
        manifest = write_manifest(
            tmp_path,
            {
                "hours": 4,
                "stories": [
                    {
                        "name": "doomed",
                        "distances": [1, 2, 3, 4, 5],
                        "times": [1, 2, 3, 4],
                        "values": [
                            [5.0, 2.0, 2.5, 1.5, 1.0],
                            [7.0, 3.0, 3.5, 2.0, 1.4],
                            [9.0, 4.2, 4.6, 2.6, 1.9],
                            [11.0, 5.5, 5.8, 3.3, 2.5],
                        ],
                    }
                ],
            },
        )
        exit_code = main(["serve-batch", "--manifest", manifest])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "every scored story failed" in captured.err


class TestDaemonCommands:
    def test_daemon_parser_defaults(self):
        args = build_parser().parse_args(["daemon"])
        assert args.listen == "stdio"
        assert args.timeout is None
        assert args.backend == "internal"
        # serve-batch and daemon share one declaration of the service options,
        # defaulting to the service's own constants.
        for argv in (["daemon"], ["serve-batch", "--manifest", "m.json"]):
            args = build_parser().parse_args(argv)
            assert args.workers is None  # the executor's default pool size
            assert args.queue_depth == DEFAULT_QUEUE_DEPTH
            assert args.shard_size == DEFAULT_MAX_SHARD_SIZE

    def test_daemon_has_no_autotune_flag(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["daemon", "--autotune"])
        assert exit_info.value.code == 2

    def test_daemon_workers_default_to_the_executor(self, monkeypatch):
        import repro.service

        built = []

        class RecordingDaemon:
            def __init__(self, **kwargs):
                built.append(kwargs)

            async def serve(self, address):
                return None

        monkeypatch.setattr(repro.service, "PredictionDaemon", RecordingDaemon)
        assert main(["daemon"]) == 0
        assert main(["daemon", "--executor", "process"]) == 0
        assert main(
            ["daemon", "--executor", "cluster", "--worker", "tcp:127.0.0.1:1"]
        ) == 0
        assert main(["daemon", "--workers", "3"]) == 0
        assert [(kw["executor"], kw["max_workers"]) for kw in built] == [
            ("thread", 1),
            ("process", 4),
            ("cluster", 4),
            ("thread", 3),
        ]

    def test_submit_requires_socket_and_manifest(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--manifest", "m.json"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--connect", "d.sock"])
        args = build_parser().parse_args(
            ["submit", "--connect", "d.sock", "--manifest", "m.json", "--id", "j1"]
        )
        assert args.id == "j1" and args.timeout is None and args.output is None

    def test_daemon_stats_requires_socket(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["daemon-stats"])

    def test_daemon_invalid_pool_bounds_exit_cleanly(self, capsys):
        for flag in ("--workers", "--queue-depth", "--shard-size"):
            exit_code = main(["daemon", "--listen", "d.sock", flag, "0"])
            captured = capsys.readouterr()
            assert exit_code == 2
            assert f"{flag} must be >= 1" in captured.err
        exit_code = main(["daemon", "--timeout", "-5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--timeout must be > 0" in captured.err

    def test_daemon_unknown_backend_exits_2(self, capsys):
        exit_code = main(["daemon", "--backend", "cuda"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cuda" in captured.err

    def test_submit_missing_manifest_exits_2(self, tmp_path, capsys):
        exit_code = main(
            ["submit", "--connect", str(tmp_path / "d.sock"), "--manifest",
             str(tmp_path / "nope.json")]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "does not exist" in captured.err

    def test_submit_unreachable_daemon_exits_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {"stories": []})
        exit_code = main(
            ["submit", "--connect", str(tmp_path / "gone.sock"), "--manifest", manifest]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot connect to the daemon" in captured.err
        assert "repro daemon --listen" in captured.err

    def test_daemon_stats_unreachable_daemon_exits_2(self, tmp_path, capsys):
        exit_code = main(["daemon-stats", "--connect", str(tmp_path / "gone.sock")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot connect to the daemon" in captured.err
