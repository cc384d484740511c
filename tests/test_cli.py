import errno
import io
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from repcount import cli, keypoints, pipeline, tracker
from repcount.cli import (EXIT_BAD_CONFIG, EXIT_BAD_DATASET, EXIT_BAD_INPUT,
                          EXIT_BAD_MODEL, EXIT_OK, main)
from repcount.conditioning import StreamingConditioner
from repcount.counting import RepCounter
from repcount.keypoints import load_frames, serialize_frame, write_session_csv
from repcount.pipeline import EngineConfig, analyze_frames
from repcount.recognizer import (LabelWindow, MlpModel, TrainConfig, load_model, save_model,
                                 train)
from repcount.reporting import render_json
from repcount.synthetic import (PersonMotion, SyntheticSessionSpec, generate_session,
                                make_labeled_dataset)


@pytest.fixture()
def model_path(trained_model, tmp_path):
    model, thresholds, _ = trained_model
    path = tmp_path / "model.json"
    save_model(path, model, thresholds)
    return str(path)


def simulate(tmp_path, name="session.ndjson", **kw):
    out = tmp_path / name
    argv = ["simulate", "--out", str(out)]
    for key, value in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == EXIT_OK
    return out


class TestSimulateAnalyze:
    def test_round_trip_exact_counts(self, tmp_path, model_path, capsys):
        session = simulate(tmp_path, exercise="squat", full_cycles=7,
                           partial_cycles=2, truth_out=str(tmp_path / "truth.json"))
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert tuple(truth[0]["expected_counts"]) == (9, 7, 2)
        capsys.readouterr()
        assert main(["analyze", str(session), "--model", model_path]) == EXIT_OK
        text = capsys.readouterr().out
        assert "Predicted Exercise: squat" in text
        assert "Total Reps:  9" in text
        assert "Correct Reps:  7" in text
        assert "Incorrect Reps:  2" in text

    def test_csv_input_format(self, tmp_path, model_path, capsys):
        session = simulate(tmp_path, name="session.csv", exercise="push-up",
                           full_cycles=4)
        capsys.readouterr()
        assert main(["analyze", str(session), "--model", model_path]) == EXIT_OK
        text = capsys.readouterr().out
        assert "Total Reps:  4" in text

    def test_json_report_written_and_agrees(self, tmp_path, model_path):
        session = simulate(tmp_path, exercise="pull-up", full_cycles=5)
        out_json = tmp_path / "report.json"
        out_text = tmp_path / "report.txt"
        assert main(["analyze", str(session), "--model", model_path,
                     "--out-json", str(out_json), "--out-text", str(out_text)]) == EXIT_OK
        doc = json.loads(out_json.read_bytes())
        assert doc["persons"][0]["total_reps"] == 5
        assert "Total Reps:  5" in out_text.read_text()

    def test_rerun_byte_identical(self, tmp_path, model_path):
        session = simulate(tmp_path, exercise="squat", full_cycles=3, noise=4.0)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["analyze", str(session), "--model", model_path,
                         "--out-json", str(out), "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_events_csv_with_traces(self, tmp_path, model_path):
        session = simulate(tmp_path, exercise="squat", full_cycles=3)
        out_csv = tmp_path / "events.csv"
        assert main(["analyze", str(session), "--model", model_path,
                     "--out-csv", str(out_csv), "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "person,frame,time_s,verdict"
        assert len(lines) == 4
        traces = list(tmp_path.glob("events.person*.trace.csv"))
        assert len(traces) == 1


class TestFrameRate:
    @pytest.mark.parametrize("name", ["session.ndjson", "session.csv"])
    def test_analyze_fps_is_the_engine_fps(self, tmp_path, model_path, name):
        session = simulate(tmp_path, name=name, exercise="squat", full_cycles=3, noise=4.0)
        out = tmp_path / "report.json"
        assert main(["analyze", str(session), "--model", model_path, "--fps", "12.5",
                     "--out-json", str(out), "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
        model, thresholds = load_model(model_path)
        result = analyze_frames(load_frames(session), model=model, thresholds=thresholds,
                                config=EngineConfig(fps=12.5))
        assert out.read_bytes() == render_json(result)
        assert json.loads(out.read_bytes())["session"]["fps"] == 12.5

    def test_empty_input_reports_the_fps_given(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
        out = tmp_path / "report.json"
        assert main(["analyze", "-", "--fps", "60", "--out-json", str(out),
                     "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
        assert json.loads(out.read_bytes())["session"]["fps"] == 60.0

    # the fps is the engine's alone: no other command takes it
    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--out", "x.ndjson"], id="simulate"),
        pytest.param(["train", "--out", "m.json"], id="train"),
        pytest.param(["calibrate", "--model", "m.json"], id="calibrate"),
        pytest.param(["bench", "x.ndjson"], id="bench"),
    ])
    def test_other_commands_reject_fps(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--fps", "30"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fps 30" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def _person_2d(bad):
    """One format-A person whose fifth keypoint value is `bad`."""
    values = [1.0, 2.0, 0.9] * 25
    values[4] = bad
    return {"pose_keypoints_2d": values}


CSV_HEADER = "frame,person,joint,x,y,z,confidence\n"
# syntactically valid documents with one malformed value each
MALFORMED_VALUES = [
    pytest.param("a.ndjson", json.dumps({"people": [1]}), id="person-not-object"),
    pytest.param("a.ndjson", json.dumps({"people": [{"pose_keypoints_2d": 5}]}),
                 id="keypoints-not-array"),
    pytest.param("a.ndjson", json.dumps({"people": [_person_2d("a")]}), id="string-value"),
    pytest.param("a.ndjson", json.dumps({"people": [_person_2d({})]}), id="object-value"),
    pytest.param("a.ndjson", json.dumps({"people": [_person_2d([1])]}), id="nested-value"),
    pytest.param("a.ndjson", json.dumps({"people": [{"pose_keypoints_2d": [[1.0]] * 75}]}),
                 id="every-value-nested"),
    pytest.param("a.ndjson", json.dumps({"people": [_person_2d("1.5")]}), id="numeric-string"),
    pytest.param("a.ndjson", json.dumps({"people": [_person_2d(True)]}), id="boolean"),
    pytest.param("a.ndjson", json.dumps({"people": [_person_2d(10 ** 400)]}),
                 id="integer-beyond-float"),
    pytest.param("b.csv", CSV_HEADER + "abc,0,4,1.0,2.0,0.0,0.9\n", id="csv-frame-not-int"),
    pytest.param("b.csv", CSV_HEADER + "0,0,4,1.0\n", id="csv-missing-columns"),
    pytest.param("b.csv", CSV_HEADER + "0,0,4,1.0,2.0,0.0,zz\n", id="csv-confidence-not-number"),
]


def test_csv_and_ndjson_give_identical_reports(tmp_path, model_path):
    """One noisy four-person session, written in both input formats, gives
    byte-identical reports."""
    motions = tuple(PersonMotion(ex, full_cycles=8, partial_cycles=2, noise_sigma=5.0,
                                 gap_rate=0.05)
                    for ex in ("squat", "push-up", "pull-up", "squat"))
    frames, _ = generate_session(SyntheticSessionSpec(persons=motions, seed=7))
    write_session_csv(tmp_path / "session.csv", frames)
    with open(tmp_path / "session.ndjson", "wb") as fh:
        for frame in frames:
            fh.write(serialize_frame(frame) + b"\n")
    reports = []
    for name in ("session.csv", "session.ndjson"):
        out_json, out_text = tmp_path / f"{name}.json", tmp_path / f"{name}.txt"
        assert main(["analyze", str(tmp_path / name), "--model", model_path,
                     "--out-json", str(out_json), "--out-text", str(out_text)]) == EXIT_OK
        reports.append((out_json.read_bytes(), out_text.read_bytes()))
    assert reports[0] == reports[1]
    assert json.loads(reports[0][0])["persons"]


def test_a_session_csv_with_nobody_in_view_for_a_while_retires_the_person(tmp_path,
                                                                        model_path):
    """Two squat sets at one spot, 100 frame indices apart: a session CSV
    has no rows in between, the NDJSON stream has frames without persons,
    and both report two persons with the same reps."""
    frames, _ = generate_session(SyntheticSessionSpec(
        persons=(PersonMotion("squat", full_cycles=4),), seed=8))
    n = len(frames)
    both = frames + [keypoints.SkeletonFrame(f.frame_index + n + 100, f.coords, f.confidence)
                     for f in frames]
    write_session_csv(tmp_path / "session.csv", both)
    by_index = {f.frame_index: f for f in both}
    with open(tmp_path / "session.ndjson", "wb") as fh:
        for i in range(2 * n + 100):
            f = by_index.get(i)
            fh.write(b'{"people":[]}\n' if f is None else serialize_frame(f) + b"\n")
    persons = []
    for name in ("session.csv", "session.ndjson"):
        out_json = tmp_path / f"{name}.json"
        assert main(["analyze", str(tmp_path / name), "--model", model_path,
                     "--out-json", str(out_json)]) == EXIT_OK
        persons.append(json.loads(out_json.read_bytes())["persons"])
    assert persons[0] == persons[1]
    assert [p["total_reps"] for p in persons[0]] == [4, 4]


class TestExitCodes:
    def test_missing_input(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.ndjson")]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("value,confidence", [
        pytest.param(float("nan"), 1.0, id="nan"),
        pytest.param(float("inf"), 1.0, id="inf"),
        pytest.param(float("nan"), 0.0, id="nan-undetected"),  # zeroed when parsed
    ])
    def test_non_finite_keypoint(self, tmp_path, value, confidence):
        session = simulate(tmp_path, full_cycles=1)
        lines = session.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["people"][0]["pose_keypoints_3d"][4 * 4:4 * 4 + 4] = [value, 1.0, 0.0, confidence]
        lines[3] = json.dumps(doc)  # written as NaN / Infinity
        session.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(session)]) == EXIT_BAD_INPUT

    def test_negative_confidence(self, tmp_path):
        session = simulate(tmp_path, full_cycles=1)
        lines = session.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["people"][0]["pose_keypoints_3d"][4 * 4 + 3] = -0.5
        lines[3] = json.dumps(doc)
        session.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(session)]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("name,content", MALFORMED_VALUES)
    def test_malformed_value(self, tmp_path, capsys, name, content):
        session = tmp_path / name
        session.write_text(content)
        assert main(["analyze", str(session)]) == EXIT_BAD_INPUT
        assert "unreadable input" in capsys.readouterr().err

    def test_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad_model.json"
        bad.write_text("{broken")
        session = simulate(tmp_path, full_cycles=1)
        assert main(["analyze", str(session), "--model", str(bad)]) == EXIT_BAD_MODEL

    def test_invalid_profile_config(self, tmp_path):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([{"name": "x"}]))
        session = simulate(tmp_path, full_cycles=1)
        assert main(["analyze", str(session), "--profiles", str(profiles)]) == EXIT_BAD_CONFIG

    def test_simulate_bad_spec(self, tmp_path):
        assert main(["simulate", "--exercise", "burpee",
                     "--out", str(tmp_path / "x.ndjson")]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--seed", "-1"], id="simulate"),
        pytest.param(["train", "--synthetic-frames", "30", "--seed", "-1"], id="train-synthetic"),
        pytest.param(["train", "--data", "nope.ndjson", "--labels", "nope.csv", "--seed", "-1"],
                     id="train-data"),
        pytest.param(["calibrate", "--model", "nope.json", "--synthetic-frames", "30",
                      "--seed", "-3"], id="calibrate"),
    ])
    def test_negative_seed(self, tmp_path, monkeypatch, capsys, argv):
        """A negative seed is an invalid configuration, rejected before any
        file is read (none of those named exists) or anything is written."""
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "x.out"]) == EXIT_BAD_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.out").exists()

    def test_train_without_data(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "m.json")]) == EXIT_BAD_DATASET

    def test_calibrate_without_data(self, model_path, capsys):
        before = open(model_path, "rb").read()
        assert main(["calibrate", "--model", model_path]) == EXIT_BAD_DATASET
        assert "need --data (or --synthetic-frames)" in capsys.readouterr().err
        assert open(model_path, "rb").read() == before

    # the recognizer gives these labels to frames it does not take for an
    # exercise; a profile of that name would count them
    @pytest.mark.parametrize("name", ["unknown", "warmup"])
    def test_reserved_profile_name(self, tmp_path, capsys, name):
        session = simulate(tmp_path, exercise="squat", full_cycles=5)
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([{"name": name, "joint_triple": [9, 10, 11],
                                         "rom_low": 80, "rom_high": 170,
                                         "motion_type": "push"}]))
        capsys.readouterr()
        assert main(["analyze", str(session), "--profiles", str(profiles)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert f"profile name {name!r} is reserved" in captured.err and captured.out == ""

    # rejected before the model (none of the named files exists) or any
    # data is read, and before anything is written
    @pytest.mark.parametrize("argv,flags", [
        pytest.param(["train", "--synthetic-frames", "30", "--data", "nope.ndjson"],
                     ["--synthetic-frames", "--data"], id="train-synthetic-and-data"),
        pytest.param(["train", "--synthetic-frames", "30", "--labels", "nope.csv"],
                     ["--synthetic-frames", "--labels"], id="train-synthetic-and-labels"),
        pytest.param(["train", "--synthetic-frames", "-6"], ["--synthetic-frames", "-6"],
                     id="train-negative-frames"),
        pytest.param(["calibrate", "--model", "nope.json", "--synthetic-frames", "30",
                      "--data", "nope.ndjson"], ["--synthetic-frames", "--data"],
                     id="calibrate-synthetic-and-data"),
        pytest.param(["calibrate", "--model", "nope.json", "--data", "nope.ndjson",
                      "--seed", "1"], ["--seed", "--data"], id="calibrate-seed-with-data"),
        pytest.param(["calibrate", "--model", "nope.json", "--synthetic-frames", "-6"],
                     ["--synthetic-frames", "-6"], id="calibrate-negative-frames"),
    ])
    def test_data_flags_that_do_not_go_together(self, tmp_path, monkeypatch, capsys, argv,
                                                 flags):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "x.out"]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not any(tmp_path.iterdir())

    # an output in a directory that does not exist is an invalid
    # configuration: rejected before anything is read (none of the named
    # inputs exists), generated, trained or written
    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["analyze", "nope.ndjson", "--out-text", "nodir/r.txt"], "--out-text",
                     id="analyze-text"),
        pytest.param(["analyze", "nope.ndjson", "--out-json", "nodir/r.json"], "--out-json",
                     id="analyze-json"),
        pytest.param(["analyze", "nope.ndjson", "--out-csv", "nodir/e.csv"], "--out-csv",
                     id="analyze-csv"),
        pytest.param(["simulate", "--out", "nodir/s.ndjson"], "--out", id="simulate"),
        pytest.param(["simulate", "--out", "s.ndjson", "--truth-out", "nodir/t.json"],
                     "--truth-out", id="simulate-truth"),
        pytest.param(["train", "--synthetic-frames", "30", "--epochs", "1",
                      "--out", "nodir/m.json"], "--out", id="train"),
        pytest.param(["train", "--synthetic-frames", "30", "--epochs", "1", "--out", "m.json",
                      "--curve-out", "nodir/c.csv"], "--curve-out", id="train-curve"),
        pytest.param(["calibrate", "--model", "nope.json", "--synthetic-frames", "30",
                      "--out", "nodir/m.json"], "--out", id="calibrate"),
    ])
    def test_output_in_a_missing_directory(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{flag} nodir/" in err, err
        assert not any(tmp_path.iterdir())

    # the path passes the check made before any work; its write fails
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["analyze", "{session}", "--out-text"], "--out-text", id="analyze-text"),
        pytest.param(["analyze", "{session}", "--out-text", "t.txt", "--out-json"], "--out-json",
                     id="analyze-json"),
        pytest.param(["analyze", "{session}", "--out-text", "t.txt", "--out-csv"], "--out-csv",
                     id="analyze-csv"),
        pytest.param(["simulate", "--out"], "--out", id="simulate"),
        pytest.param(["simulate", "--out", "s.ndjson", "--truth-out"], "--truth-out",
                     id="simulate-truth"),
        pytest.param(["train", "--synthetic-frames", "30", "--epochs", "1",
                      "--calibrate-split", "0", "--out"], "--out", id="train"),
        pytest.param(["train", "--synthetic-frames", "30", "--epochs", "1",
                      "--calibrate-split", "0", "--out", "m.json", "--curve-out"], "--curve-out",
                     id="train-curve"),
        pytest.param(["calibrate", "--model", "{model}", "--synthetic-frames", "300", "--out"],
                     "--out", id="calibrate"),
    ])
    def test_output_on_a_full_disk(self, tmp_path, monkeypatch, capsys, model_path, argv, flag):
        session = simulate(tmp_path, full_cycles=1)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        argv = [arg.format(session=session, model=model_path) for arg in argv]
        assert main([*argv, "/dev/full"]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {flag} /dev/full: cannot write: No space left on device\n"

    def test_output_that_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
        assert "is a directory" in capsys.readouterr().err

    def test_empty_profile_list(self, tmp_path, capsys):
        session = simulate(tmp_path, exercise="push-up", full_cycles=2)
        profiles = tmp_path / "profiles.json"
        profiles.write_text("[]")
        assert main(["analyze", str(session), "--profiles", str(profiles)]) == EXIT_BAD_CONFIG
        assert "non-empty" in capsys.readouterr().err

    # the input does not exist: the model must be rejected before it is read
    @pytest.mark.parametrize("thresholds", [
        pytest.param([[0.5, 0.9]] * 3, id="list"),
        pytest.param({"push-up": 0.5, "pull-up": [0.5, 0.9], "squat": [0.5, 0.9]},
                     id="scalar-bound"),
        pytest.param({"push-up": [0.5, 0.9], "pull-up": [0.5, 0.9]}, id="class-without-bound"),
    ])
    def test_malformed_reject_thresholds(self, tmp_path, capsys, model_path, thresholds):
        doc = json.loads(open(model_path, encoding="utf-8").read())
        doc["reject_thresholds"] = thresholds
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(tmp_path / "nope.ndjson"), "--model", str(bad)]) \
            == EXIT_BAD_MODEL
        assert "reject_thresholds" in capsys.readouterr().err

    # the input does not exist: the model must be rejected before it is read
    @pytest.mark.parametrize("class_names", [
        pytest.param([1, 2, 3], id="numbers"),
        pytest.param(["push-up", "push-up", "squat"], id="repeated"),
        pytest.param(["push-up", None, "squat"], id="null"),
    ])
    def test_class_names_that_are_not_distinct_strings(self, tmp_path, capsys, model_path,
                                                       class_names):
        doc = json.loads(open(model_path, encoding="utf-8").read())
        doc["class_names"], doc["reject_thresholds"] = class_names, None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(tmp_path / "nope.ndjson"), "--model", str(bad)]) \
            == EXIT_BAD_MODEL
        assert "class_names must be distinct strings" in capsys.readouterr().err

    # a model of another input width is rejected before the input, which
    # does not exist, is read
    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "nope.ndjson", "--model"], id="analyze"),
        pytest.param(["calibrate", "--synthetic-frames", "30", "--model"], id="calibrate"),
        pytest.param(["bench", "nope.ndjson", "--model"], id="bench"),
    ])
    def test_model_of_another_input_width(self, tmp_path, capsys, argv):
        model = MlpModel(layer_dims=[4, 3], weights=[np.zeros((4, 3))], biases=[np.zeros(3)],
                         class_names=["push-up", "pull-up", "squat"])
        narrow = tmp_path / "narrow.json"
        save_model(narrow, model)
        assert main([*argv, str(narrow)]) == EXIT_BAD_MODEL
        err = capsys.readouterr().err
        assert "takes 4 input features, a skeleton gives 50" in err

    def test_model_number_beyond_a_double(self, tmp_path, capsys, model_path):
        doc = json.loads(open(model_path, encoding="utf-8").read())
        doc["weights"][0][0][0] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(tmp_path / "nope.ndjson"), "--model", str(bad)]) \
            == EXIT_BAD_MODEL
        assert "corrupt model file" in capsys.readouterr().err

    def test_profile_named_twice(self, tmp_path, capsys):
        entry = {"joint_triple": [9, 10, 11], "rom_low": 80, "rom_high": 170,
                 "motion_type": "push"}
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([{"name": "squat", **entry},
                                        {**entry, "name": "squat", "joint_triple": [2, 3, 4],
                                         "rom_low": 10, "rom_high": 20}]))
        assert main(["analyze", str(tmp_path / "nope.ndjson"),
                     "--profiles", str(profiles)]) == EXIT_BAD_CONFIG
        assert "'squat' is named twice" in capsys.readouterr().err

    def test_bench_bad_repetitions(self, tmp_path):
        session = simulate(tmp_path, full_cycles=1)
        assert main(["bench", str(session), "--repetitions", "0"]) == EXIT_BAD_CONFIG

    # the input does not exist: the option must be rejected before it is read
    @pytest.mark.parametrize("command", ["analyze"])
    @pytest.mark.parametrize("fps", ["nan", "inf", "-inf", "0", "-1", "1e-310"])
    def test_bad_fps(self, tmp_path, capsys, command, fps):
        assert main([command, str(tmp_path / "nope.ndjson"), f"--fps={fps}"]) == EXIT_BAD_CONFIG
        assert "--fps must be a finite number > 0" in capsys.readouterr().err

    # the data does not exist: the option must be rejected before it is read
    @pytest.mark.parametrize("options,message", [
        pytest.param(["--epochs", "0", "--calibrate-split", "0"], "--epochs must be >= 1",
                     id="epochs-0"),
        pytest.param(["--batch-size", "0"], "--batch-size must be >= 1", id="batch-size-0"),
        pytest.param(["--learning-rate", "nan"], "--learning-rate must be a finite number > 0",
                     id="learning-rate-nan"),
        pytest.param(["--learning-rate", "0"], "--learning-rate must be a finite number > 0",
                     id="learning-rate-0"),
        pytest.param(["--calibrate-split", "inf"], "--calibrate-split must lie in [0, 1)",
                     id="calibrate-split-inf"),
        pytest.param(["--calibrate-split", "nan"], "--calibrate-split must lie in [0, 1)",
                     id="calibrate-split-nan"),
        pytest.param(["--calibrate-split", "1.5"], "--calibrate-split must lie in [0, 1)",
                     id="calibrate-split-1.5"),
        pytest.param(["--calibrate-split", "1"], "--calibrate-split must lie in [0, 1)",
                     id="calibrate-split-1"),
        pytest.param(["--calibrate-split", "-0.1"], "--calibrate-split must lie in [0, 1)",
                     id="calibrate-split-negative"),
    ])
    def test_bad_train_number(self, tmp_path, capsys, options, message):
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(tmp_path / "nope.ndjson"),
                     "--labels", str(tmp_path / "nope.csv"), "--out", str(out),
                     *options]) == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_train_diverging_parameters(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        with np.errstate(all="ignore"):
            code = main(["train", "--synthetic-frames", "300", "--epochs", "3",
                         "--learning-rate", "1e6", "--out", str(out)])
        assert code == EXIT_BAD_DATASET
        assert "parameters became non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_split_that_holds_no_row(self, tmp_path, capsys, monkeypatch):
        # 0.001 of 300 rows rounds down to none, which is said before calibration
        monkeypatch.setattr(cli, "calibrate_reject", None)
        out = tmp_path / "m.json"
        assert main(["train", "--synthetic-frames", "300", "--epochs", "1",
                     "--calibrate-split", "0.001", "--out", str(out)]) == EXIT_BAD_DATASET
        err = capsys.readouterr().err
        assert "no held-out samples" in err
        assert "--calibrate-split 0.001 of 300 rows holds out int(300 * 0.001) = 0 rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("triple", [
        pytest.param([9, 10], id="two-joints"),
        pytest.param([9, 10.5, 11], id="float-joint"),
        pytest.param([9, True, 11], id="boolean-joint"),
    ])
    def test_malformed_profile_triple(self, tmp_path, capsys, triple):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([{"name": "x", "joint_triple": triple, "rom_low": 60,
                                         "rom_high": 160, "motion_type": "push"}]))
        assert main(["analyze", str(tmp_path / "nope.ndjson"),
                     "--profiles", str(profiles)]) == EXIT_BAD_CONFIG
        assert "invalid profile config" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_tolerance(self, tmp_path, capsys, tolerance):
        assert main(["analyze", str(tmp_path / "nope.ndjson"),
                     f"--tolerance={tolerance}"]) == EXIT_BAD_CONFIG
        assert "--tolerance must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--fps=0.5", "--tolerance=0", "--tolerance=45"])
    def test_edge_values_accepted(self, tmp_path, option):
        session = simulate(tmp_path, full_cycles=1)
        assert main(["analyze", str(session), option,
                     "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK

    @pytest.mark.parametrize("option,value,message", [
        ("--noise", "nan", "noise parameters must be finite numbers >= 0"),
        ("--noise", "inf", "noise parameters must be finite numbers >= 0"),
    ])
    def test_simulate_non_finite_number(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "x.ndjson"
        assert main(["simulate", "--out", str(out), option, value]) == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["ndjson", "directory", "csv", "stdin"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, monkeypatch, mode):
        bad = b'{"people": [\xff]}'
        if mode == "ndjson":
            session, where = tmp_path / "a.ndjson", "line 2"
            session.write_bytes(b'{"people": []}\n' + bad + b"\n")
        elif mode == "directory":
            session = tmp_path / "frames"
            session.mkdir()
            (session / "000.json").write_bytes(bad)
            where = str(session / "000.json")
        elif mode == "csv":
            session, where = tmp_path / "a.csv", "line 2"
            session.write_bytes(b"frame,person,joint,x,y,z,confidence\n0,0,\xff\n")
        else:
            session, where = "-", "line 2"
            stdin = io.TextIOWrapper(io.BytesIO(b'{"people": []}\n' + bad + b"\n"))
            monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["analyze", str(session)]) == EXIT_BAD_INPUT
        assert f"unreadable input: {where}: not UTF-8 at byte" in capsys.readouterr().err

    def test_stdin_is_read_as_ndjson(self, tmp_path, capsys, monkeypatch, model_path):
        session = simulate(tmp_path, exercise="squat", full_cycles=3)
        capsys.readouterr()
        assert main(["analyze", str(session), "--model", model_path]) == EXIT_OK
        want = capsys.readouterr().out
        assert "Total Reps:  3" in want
        # CRLF line ends, as a text-mode read of the file takes them
        data = session.read_bytes().replace(b"\n", b"\r\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["analyze", "-", "--model", model_path]) == EXIT_OK
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("stream", ["file", "in-memory"])
    def test_stdin_report_equals_the_file_report(self, tmp_path, monkeypatch, model_path,
                                                 stream):
        """A multi-person session through stdin, over a file's raw stream or
        in memory, gives the JSON report of the same file."""
        session = simulate(tmp_path, exercise="squat", persons=4, full_cycles=3, noise=4.0,
                           gap_rate=0.05)

        def report(source, name):
            out = tmp_path / name
            assert main(["analyze", source, "--model", model_path, "--out-json", str(out),
                         "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
            return out.read_bytes()

        want = report(str(session), "file.json")
        if stream == "file":
            stdin = open(session, encoding="utf-8")
            assert hasattr(stdin.buffer, "raw")
        else:
            stdin = io.TextIOWrapper(io.BytesIO(session.read_bytes()))
        with stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert report("-", "stdin.json") == want
            assert not stdin.closed

    def test_openpose_output_is_analyzed(self, tmp_path, model_path):
        """OpenPose 1.3 and later write an empty pose_keypoints_3d beside
        pose_keypoints_2d: such a session reads as its 2-D keypoints."""
        session = simulate(tmp_path, exercise="squat", full_cycles=3, noise=4.0)
        plain, openpose = tmp_path / "plain.ndjson", tmp_path / "openpose.ndjson"
        with open(plain, "w") as a, open(openpose, "w") as b:
            for frame in load_frames(session):
                people = [{"pose_keypoints_2d": np.column_stack([xyz[:, :2], c]).ravel().tolist()}
                          for xyz, c in zip(frame.coords, frame.confidence)]
                a.write(json.dumps({"people": people}) + "\n")
                for person in people:
                    person.update(person_id=[-1], face_keypoints_2d=[], pose_keypoints_3d=[],
                                  face_keypoints_3d=[])
                b.write(json.dumps({"version": 1.3, "people": people}) + "\n")
        reports = []
        for path in (plain, openpose):
            out = tmp_path / f"{path.stem}.json"
            assert main(["analyze", str(path), "--model", model_path, "--out-json", str(out),
                         "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_malformed_ndjson_line_is_named(self, tmp_path, capsys):
        session = tmp_path / "a.ndjson"
        session.write_text('{"people": []}\n\n{"people": [1]}\n')
        assert main(["analyze", str(session)]) == EXIT_BAD_INPUT
        assert "unreadable input: line 3: person 0: must be an object" in capsys.readouterr().err


class TestTrain:
    def test_synthetic_training_writes_artifacts(self, tmp_path, capsys):
        model_out = tmp_path / "model.json"
        curve_out = tmp_path / "curve.csv"
        assert main(["train", "--synthetic-frames", "300", "--epochs", "8",
                     "--out", str(model_out), "--curve-out", str(curve_out)]) == EXIT_OK
        assert "model written" in capsys.readouterr().out
        doc = json.loads(model_out.read_text())
        assert doc["class_names"] == ["push-up", "pull-up", "squat"]
        assert doc["reject_thresholds"] is not None
        lines = curve_out.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 9

    def test_trained_model_usable(self, tmp_path, capsys):
        model_out = tmp_path / "model.json"
        assert main(["train", "--synthetic-frames", "600", "--epochs", "15",
                     "--out", str(model_out)]) == EXIT_OK
        session = simulate(tmp_path, exercise="squat", full_cycles=4)
        capsys.readouterr()
        assert main(["analyze", str(session), "--model", str(model_out)]) == EXIT_OK
        assert "Total Reps:  4" in capsys.readouterr().out


    # fewer than 1 frame per class of the 3
    @pytest.mark.parametrize("frames", ["-30", "1", "2"])
    def test_too_few_synthetic_frames(self, tmp_path, capsys, frames):
        out = tmp_path / "model.json"
        assert main(["train", "--synthetic-frames", frames, "--epochs", "2",
                     "--calibrate-split", "0", "--out", str(out)]) == EXIT_BAD_CONFIG
        assert "need at least 1 frame per class" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_of_frames_not_in_the_data_add_no_class(self, tmp_path):
        """The classes are the labels of the data's rows: a label of a frame
        the session does not hold changes no byte of the model."""
        session = simulate(tmp_path, exercise="squat", full_cycles=2)
        frames = len(session.read_text().splitlines())
        rows = [f"{f},{'push-up' if f < frames // 2 else 'squat'}" for f in range(frames)]
        models = []
        for extra in ([], ["99999,lunge"]):
            labels = tmp_path / "labels.csv"
            labels.write_text("\n".join(["frame,label", *rows, *extra]) + "\n")
            out = tmp_path / f"model{len(extra)}.json"
            assert main(["train", "--data", str(session), "--labels", str(labels),
                         "--epochs", "2", "--calibrate-split", "0", "--out", str(out)]) == EXIT_OK
            models.append(out.read_bytes())
        assert json.loads(models[0])["class_names"] == ["push-up", "squat"]
        assert models[1] == models[0]

    @pytest.mark.parametrize("labels,where", [
        pytest.param(b"frame,label\n0,squat\nx,squat\n", "line 3", id="frame-not-integer"),
        # numerals the session CSV rejects, which int() reads as 10 and 2
        pytest.param(b"frame,label\n0,squat\n1_0,push-up\n", "line 3", id="digit-separator"),
        pytest.param("frame,label\n0,squat\n\u0662,pull-up\n".encode(), "line 3",
                     id="non-ascii-digit"),
        pytest.param(b"frame,exercise\n0,squat\n", "line 2", id="no-label-column"),
        pytest.param(b"frame,label\n0,squat\n1\n", "line 3", id="short-row"),
        pytest.param(b"frame,label\n0,squat\n1,sq\xffuat\n", "line 3", id="not-utf8"),
    ])
    def test_malformed_labels(self, tmp_path, capsys, labels, where):
        session = simulate(tmp_path, exercise="squat", full_cycles=1)
        path = tmp_path / "labels.csv"
        path.write_bytes(labels)
        out = tmp_path / "model.json"
        capsys.readouterr()
        assert main(["train", "--data", str(session), "--labels", str(path),
                     "--out", str(out)]) == EXIT_BAD_DATASET
        assert f"{where}: " in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def test_recalibrate_model(self, tmp_path, model_path, capsys):
        out = tmp_path / "recal.json"
        assert main(["calibrate", "--model", model_path, "--synthetic-frames", "300",
                     "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "ci_low" in printed
        doc = json.loads(out.read_text())
        assert set(doc["reject_thresholds"]) == {"push-up", "pull-up", "squat"}

    def test_too_few_synthetic_frames(self, tmp_path, capsys, model_path):
        before = open(model_path, "rb").read()
        assert main(["calibrate", "--model", model_path,
                     "--synthetic-frames", "-3"]) == EXIT_BAD_CONFIG
        assert "need at least 1 frame per class" in capsys.readouterr().err
        assert open(model_path, "rb").read() == before

    def test_class_without_synthetic_motion(self, tmp_path, capsys, model_path):
        doc = json.loads(open(model_path, encoding="utf-8").read())
        doc["class_names"][0] = "jog"
        doc["reject_thresholds"]["jog"] = doc["reject_thresholds"].pop("push-up")
        path = tmp_path / "jog.json"
        path.write_text(json.dumps(doc))
        assert main(["calibrate", "--model", str(path), "--synthetic-frames", "300",
                     "--out", str(tmp_path / "out.json")]) == EXIT_BAD_CONFIG
        assert "no synthetic motion" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_a_failed_write_leaves_the_model_as_it_was(self, model_path, monkeypatch, capsys):
        """Without --out the model file is rewritten: a write that fails
        partway, on a full disk, leaves it as it was and no file beside it."""
        before = open(model_path, "rb").read()

        def full_disk(path, data, encoding=None, errors=None, newline=None):
            open(path, "w").close()  # a write truncates the file first
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert main(["calibrate", "--model", model_path, "--synthetic-frames", "300"]) \
            == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --model {model_path}: cannot write: No space left on device\n"
        assert open(model_path, "rb").read() == before
        assert os.listdir(os.path.dirname(model_path)) == ["model.json"]

    @staticmethod
    def model_of(tmp_path, class_names):
        """The path of a model trained on synthetic frames of these classes."""
        x, y = make_labeled_dataset(class_names, 200, seed=0)
        model, _ = train(x, y, class_names, TrainConfig(epochs=5, seed=0))
        path = tmp_path / f"{len(class_names)}-classes.json"
        save_model(path, model)
        return path

    def test_synthetic_frames_are_split_over_the_model_classes(self, tmp_path, monkeypatch):
        class_names = ["push-up", "squat"]
        path = self.model_of(tmp_path, class_names)
        asked = []

        def recording(names, frames_per_class, seed=0):
            asked.append((list(names), frames_per_class))
            return make_labeled_dataset(names, frames_per_class, seed=seed)

        monkeypatch.setattr(cli, "make_labeled_dataset", recording)
        assert main(["calibrate", "--model", str(path), "--synthetic-frames", "300"]) == EXIT_OK
        assert asked == [(class_names, 150)]

    def test_one_synthetic_frame_per_class_of_a_two_class_model(self, tmp_path):
        path = self.model_of(tmp_path, ["push-up", "squat"])
        out = tmp_path / "out.json"
        assert main(["calibrate", "--model", str(path), "--synthetic-frames", "2",
                     "--out", str(out)]) == EXIT_OK
        assert set(json.loads(out.read_text())["reject_thresholds"]) == {"push-up", "squat"}

    def test_fewer_synthetic_frames_than_the_model_classes(self, tmp_path, monkeypatch, capsys):
        """The check counts the model's classes, and comes before any frame
        is generated."""
        path = self.model_of(tmp_path, ["push-up", "pull-up", "squat", "sit-up"])
        monkeypatch.setattr(cli, "make_labeled_dataset", None)  # a call would fail
        out = tmp_path / "out.json"
        assert main(["calibrate", "--model", str(path), "--synthetic-frames", "3",
                     "--out", str(out)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == ("error: --synthetic-frames 3: need at least 1 frame "
                                           "per class of the model's 4\n")
        assert not out.exists()

    def test_no_normalizable_skeleton(self, tmp_path, model_path):
        session = tmp_path / "empty.ndjson"
        session.write_text('{"people": []}\n')
        assert main(["calibrate", "--model", model_path, "--data", str(session)]) \
            == EXIT_BAD_DATASET


def test_bench_smoke(tmp_path, model_path, capsys):
    session = simulate(tmp_path, exercise="push-up", full_cycles=10)
    assert main(["bench", str(session), "--model", model_path,
                 "--repetitions", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pipeline throughput" in out
    assert "frames/s" in out


@pytest.mark.parametrize("mode", ["ndjson", "csv", "stdin"])
def test_analyze_calls_process_frame_once_per_frame_in_order(tmp_path, model_path,
                                                             monkeypatch, mode):
    """A wrapper of SessionEngine.process_frame with the signature (self,
    frame) sees every frame once, in order, and the report is unchanged,
    whichever chunk loader reads the input."""
    session = simulate(tmp_path, name="session.csv" if mode == "csv" else "session.ndjson",
                       exercise="squat", full_cycles=30, noise=4.0, gap_rate=0.05)
    monkeypatch.setattr(keypoints, "CHUNK_ROWS", 256)  # chunks of 256 frames of one person

    def analyze(out_json):
        if mode == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(session.read_bytes())))
        return main(["analyze", "-" if mode == "stdin" else str(session), "--model", model_path,
                     "--out-text", str(tmp_path / "t.txt"), "--out-json", str(out_json)])

    assert analyze(tmp_path / "plain.json") == EXIT_OK
    process_frame = pipeline.SessionEngine.process_frame
    seen = []

    def wrapped(self, frame):
        seen.append(frame.frame_index)
        return process_frame(self, frame)

    monkeypatch.setattr(pipeline.SessionEngine, "process_frame", wrapped)
    assert analyze(tmp_path / "wrapped.json") == EXIT_OK
    n_frames = len(load_frames(session))
    assert n_frames > 2 * keypoints.CHUNK_ROWS
    assert seen == list(range(n_frames))
    assert (tmp_path / "wrapped.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_per_frame_work_runs_inside_its_process_frame(tmp_path, model_path, monkeypatch):
    """In a multi-person analyze, every label vote, conditioner feed and
    counter step runs inside the process_frame call of its frame: one vote
    per tracked skeleton of the frame, the feed of frame f in the call of
    frame f, and each step in the call whose feed or set close released its
    sample. The frame percentiles of the benchmark time process_frame, so
    work moved out of it would leave them timing less."""
    motions = tuple(PersonMotion(ex, full_cycles=6, partial_cycles=1, noise_sigma=5.0,
                                 gap_rate=0.05)
                    for ex in ("squat", "push-up", "pull-up", "sit-up"))
    frames, _ = generate_session(SyntheticSessionSpec(persons=motions, seed=3))
    session = tmp_path / "session.ndjson"
    with open(session, "wb") as fh:
        for frame in frames:
            fh.write(serialize_frame(frame) + b"\n")

    def analyze(out_json):
        return main(["analyze", str(session), "--model", model_path,
                     "--out-text", str(tmp_path / "t.txt"), "--out-json", str(out_json)])

    assert analyze(tmp_path / "plain.json") == EXIT_OK
    engine_cls = pipeline.SessionEngine
    process_frame, finalize = engine_cls.process_frame, engine_cls.finalize
    match_frame = tracker.PoseTracker.match_frame
    push, feed, flush = LabelWindow.push, StreamingConditioner.feed, StreamingConditioner.flush
    step = RepCounter.step
    inside = [None]  # the frame index of the running process_frame call, or "finalize"
    tracked, votes, misfed = {}, Counter(), []
    released, stepped = defaultdict(list), defaultdict(list)

    def in_call(where, method):
        def wrapped(self, *args):
            inside[0] = where(args)
            try:
                return method(self, *args)
            finally:
                inside[0] = None
        return wrapped

    def recording_match(self, frame, plan=None):
        assignment = match_frame(self, frame, plan)
        tracked[inside[0]] = len(assignment.id_by_skeleton)
        return assignment

    def recording_push(self, label):
        votes[inside[0]] += 1
        return push(self, label)

    def recording_feed(self, frame, raw):
        if inside[0] != frame:
            misfed.append((inside[0], frame))
        samples = feed(self, frame, raw)
        released[inside[0]] += [f for f, _, _ in samples]
        return samples

    def recording_flush(self):
        samples = flush(self)
        released[inside[0]] += [f for f, _, _ in samples]
        return samples

    def recording_step(self, frame, time_s, angle):
        stepped[inside[0]].append(frame)
        return step(self, frame, time_s, angle)

    monkeypatch.setattr(engine_cls, "process_frame",
                        in_call(lambda args: args[0].frame_index, process_frame))
    monkeypatch.setattr(engine_cls, "finalize", in_call(lambda args: "finalize", finalize))
    monkeypatch.setattr(tracker.PoseTracker, "match_frame", recording_match)
    monkeypatch.setattr(LabelWindow, "push", recording_push)
    monkeypatch.setattr(StreamingConditioner, "feed", recording_feed)
    monkeypatch.setattr(StreamingConditioner, "flush", recording_flush)
    monkeypatch.setattr(RepCounter, "step", recording_step)
    assert analyze(tmp_path / "wrapped.json") == EXIT_OK
    assert (tmp_path / "wrapped.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    assert sorted(tracked) == list(range(len(frames)))
    assert votes == Counter({index: n for index, n in tracked.items() if n})
    assert misfed == []
    assert stepped == {where: f for where, f in released.items() if f}
    assert None not in released
    assert sum(len(f) for where, f in stepped.items() if where != "finalize") > 2 * len(frames)


@pytest.mark.parametrize("mode", ["ndjson", "directory", "csv"])
def test_analyze_makes_no_copy_of_the_loaded_arrays(tmp_path, model_path, monkeypatch, mode):
    """The labels and angles of each loaded chunk are computed on its own
    arrays."""
    session = simulate(tmp_path, name="session.csv" if mode == "csv" else "session.ndjson",
                       exercise="squat", persons=2, full_cycles=30, gap_rate=0.05)
    monkeypatch.setattr(keypoints, "CHUNK_ROWS", 256)  # chunks of 128 frames of two persons
    if mode == "directory":
        lines = session.read_text().splitlines()
        session = tmp_path / "frames"
        session.mkdir()
        for i, line in enumerate(lines):
            (session / f"{i:04d}.json").write_text(line)
    loaded, labelled, angled = [], [], []
    load_chunks, normalize_frame = cli.load_chunks, pipeline.normalize_frame
    profile_cosines = pipeline.profile_cosines

    def recording_load(path):
        loaded.extend(load_chunks(path))
        return loaded

    def recording_normalize(coords, confidence):
        labelled.append((coords, confidence))
        return normalize_frame(coords, confidence)

    def recording_cosines(profiles, coords, confidence):
        angled.append((coords, confidence))
        return profile_cosines(profiles, coords, confidence)

    monkeypatch.setattr(cli, "load_chunks", recording_load)
    monkeypatch.setattr(pipeline, "normalize_frame", recording_normalize)
    monkeypatch.setattr(pipeline, "profile_cosines", recording_cosines)
    assert main(["analyze", str(session), "--model", model_path,
                 "--out-text", str(tmp_path / "t.txt")]) == EXIT_OK
    assert len(loaded) > 2
    assert len(labelled) == len(angled) == len(loaded)
    for chunk, *received in zip(loaded, labelled, angled):
        for coords, confidence in received:
            assert np.shares_memory(coords, chunk.coords)
            assert np.shares_memory(confidence, chunk.confidence)
