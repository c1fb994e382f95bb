"""Tests for the command-line interface (repro.system.cli).

The CLI workflow is exercised end to end on a tiny dataset: generate-data →
label → train → evaluate / select / detect / list-selectors.  To keep the
oracle step fast, the detector window is small and only a few short series
are generated.
"""

import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.detectors import DEFAULT_MODEL_NAMES
from repro.selectors import make_selector
from repro.system import SelectorStore
from repro.system.cli import build_parser, main


def _with_value_at(series_file: Path, directory: Path, index: int, value: str) -> Path:
    """A copy of a labelled series CSV (header + ``value,label`` rows), named
    ``broken.csv``, whose point ``index`` reads ``value``."""
    lines = series_file.read_text().splitlines()
    row = lines[index + 1].split(",")
    row[0] = value
    lines[index + 1] = ",".join(row)
    broken = directory / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    return broken


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Run generate-data + label once and share the artefacts across tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    perf_path = root / "perf.npz"

    assert main([
        "generate-data", str(data_dir),
        "--datasets", "ECG", "IOPS", "SMD",
        "--per-dataset", "1", "--length", "400", "--seed", "3",
    ]) == 0

    assert main([
        "label", str(data_dir), str(perf_path),
        "--detector-window", "16",
    ]) == 0

    return {"root": root, "data_dir": data_dir, "perf_path": perf_path}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "data", "perf.npz"])
        assert args.selector == "ResNet"
        assert args.pruning == "none"
        assert not args.pisl and not args.mki

    def test_invalid_selector_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "data", "perf.npz", "--selector", "NotASelector"])


class TestWindowAndStrideBelowOne:
    """``--window`` and ``--stride`` below 1 exit with a message before any input is read.

    Every input named here is missing, so a command that read one first
    would exit with a different message.
    """

    #: each command's required arguments
    REQUIRED = {
        "train": ["{missing}", "{missing}.npz", "--store", "{store}"],
        "distill": ["{missing}", "--name", "mlp", "--store", "{store}"],
        "quantize-teacher": ["{missing}", "--name", "mlp", "--store", "{store}"],
        "evaluate": ["{missing}", "{missing}.npz", "--name", "mlp", "--store", "{store}"],
        "select": ["{missing}.csv", "--name", "mlp", "--store", "{store}"],
        "detect": ["{missing}.csv", "--name", "mlp", "--store", "{store}"],
        "train-cost-model": ["{missing}.jsonl"],
    }

    def _exit_message(self, tmp_path, command, flag, value):
        args = [arg.format(missing=tmp_path / "missing", store=tmp_path / "store")
                for arg in self.REQUIRED[command]]
        with pytest.raises(SystemExit) as caught:
            main([command, *args, flag, value])
        assert not (tmp_path / "store").exists()
        return str(caught.value.code)

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_window_below_one(self, tmp_path, command, value):
        assert self._exit_message(tmp_path, command, "--window", value) == "--window must be >= 1"

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", ["train", "distill", "quantize-teacher"])
    def test_stride_below_one(self, tmp_path, command, value):
        assert self._exit_message(tmp_path, command, "--stride", value) == "--stride must be >= 1"


class TestNumericFlagsOutOfRange:
    """The remaining numeric flags exit with a message before any input is
    read, any output is written or any shard is forked.

    Every input named here is missing, so a command that read one first
    would exit with a different message.
    """

    #: each command's required arguments
    REQUIRED = {
        "generate-data": ["{missing}"],
        "label": ["{missing}", "{missing}.npz"],
        "train": ["{missing}", "{missing}.npz", "--store", "{store}"],
        "distill": ["{missing}", "--name", "mlp", "--store", "{store}"],
        "serve-sharded": ["{missing}.csv", "--name", "mlp", "--store", "{store}"],
    }

    @pytest.mark.parametrize("command, flag, value, message", [
        ("generate-data", "--length", "0", "--length must be >= 1"),
        ("generate-data", "--length", "-5", "--length must be >= 1"),
        ("label", "--workers", "-2", "--workers must be >= 0"),
        ("train", "--batch-size", "0", "--batch-size must be >= 1"),
        ("train", "--pruning-ratio", "1.5", "pruning ratio must be in [0, 1)"),
        ("train", "--lsh-bits", "0", "lsh_bits must be between 1 and 63"),
        ("train", "--lsh-bits", "64", "lsh_bits must be between 1 and 63"),
        ("distill", "--batch-size", "0", "--batch-size must be >= 1"),
        ("distill", "--hidden", "0", "--hidden must be >= 1"),
        ("distill", "--kernels", "0", "--kernels must be >= 1"),
        ("serve-sharded", "--request-timeout", "0", "request_timeout_s must be > 0"),
        ("serve-sharded", "--request-timeout", "-1", "request_timeout_s must be > 0"),
    ])
    def test_exits_with_its_message(self, tmp_path, command, flag, value, message):
        args = [arg.format(missing=tmp_path / "missing", store=tmp_path / "store")
                for arg in self.REQUIRED[command]]
        with pytest.raises(SystemExit) as caught:
            main([command, *args, flag, value])
        assert str(caught.value.code) == message
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--epochs", "0", "epochs must be >= 1"),
        ("train", "--lr", "0", "lr must be finite and > 0"),
        ("train", "--lr", "nan", "lr must be finite and > 0"),
        ("distill", "--epochs", "0", "epochs must be >= 1"),
        ("distill", "--lr", "inf", "lr must be finite and > 0"),
        ("serve-sharded", "--request-timeout", "inf",
         f"request_timeout_s must be finite and at most {threading.TIMEOUT_MAX:.0f}"),
        ("serve-sharded", "--request-timeout", "1e12",
         f"request_timeout_s must be finite and at most {threading.TIMEOUT_MAX:.0f}"),
    ])
    def test_config_checks_exit_with_their_message(self, tmp_path, command, flag, value, message):
        # the configs own these checks; the command reports them first
        self.test_exits_with_its_message(tmp_path, command, flag, value, message)


class TestGenerateAndLabel:
    def test_generate_data_writes_csv(self, cli_workspace):
        files = list(cli_workspace["data_dir"].glob("*.csv"))
        assert len(files) == 3

    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_generate_data_writes_every_family_below_eight_points(self, tmp_path, length):
        assert main(["generate-data", str(tmp_path), "--length", str(length), "--per-dataset", "1"]) == 0
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == 16
        assert all(len(path.read_text().splitlines()) == length + 1 for path in files)

    def test_label_outputs_matrix_and_names(self, cli_workspace):
        perf_path = cli_workspace["perf_path"]
        with np.load(perf_path, allow_pickle=False) as archive:
            matrix = archive["performance"]
            names = archive["names"]
        assert matrix.shape == (3, 12)
        assert len(names) == 3
        detectors = json.loads(perf_path.with_suffix(".detectors.json").read_text())
        assert len(detectors) == 12


class TestUnreadableInputs:
    """Commands that read a data directory or a performance archive exit
    with a message naming the input, never with a traceback."""

    #: what each command needs besides its data directory
    ARGS_AFTER_DIRECTORY = {
        "label": ["{perf}"],
        "train": ["{perf}"],
        "evaluate": ["{perf}", "--name", "mlp"],
        "distill": ["--name", "mlp"],
        "quantize-teacher": ["--name", "mlp"],
        "batch-select": ["--name", "mlp"],
    }

    @pytest.mark.parametrize("command", list(ARGS_AFTER_DIRECTORY))
    def test_missing_data_directory(self, tmp_path, command):
        extra = [arg.format(perf=tmp_path / "perf.npz")
                 for arg in self.ARGS_AFTER_DIRECTORY[command]]
        with pytest.raises(SystemExit, match=r"^no such directory: .*no_such_dir$"):
            main([command, str(tmp_path / "no_such_dir"), *extra])

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("case", ["missing", "not-an-archive", "bad-detector-names"])
    def test_unreadable_performance_files(self, cli_workspace, tmp_path, command, case):
        perf = tmp_path / "perf.npz"
        if case == "missing":
            reason = r"^cannot read performance archive .*perf\.npz: .*No such file"
        elif case == "not-an-archive":
            perf.write_text("value\n1.0\n")
            reason = r"^cannot read performance archive .*perf\.npz: "
        else:
            shutil.copy(cli_workspace["perf_path"], perf)
            perf.with_suffix(".detectors.json").write_text("[\"IForest\", ")
            reason = r"^cannot read detector names .*perf\.detectors\.json: "
        with pytest.raises(SystemExit, match=reason):
            main([command, str(cli_workspace["data_dir"]), str(perf),
                  "--store", str(tmp_path / "store"), "--name", "mlp"])


class TestTrainEvaluateDetect:
    @pytest.fixture(scope="class")
    def trained_store(self, cli_workspace):
        store = cli_workspace["root"] / "store"
        assert main([
            "train", str(cli_workspace["data_dir"]), str(cli_workspace["perf_path"]),
            "--selector", "MLP", "--store", str(store), "--name", "mlp",
            "--window", "64", "--stride", "32", "--epochs", "1", "--batch-size", "32",
            "--pisl", "--pruning", "infobatch",
        ]) == 0
        return store

    def test_train_persists_selector(self, trained_store):
        assert (trained_store / "mlp" / "manifest.json").exists()

    def test_train_non_nn_selector(self, cli_workspace):
        store = cli_workspace["root"] / "store_knn"
        assert main([
            "train", str(cli_workspace["data_dir"]), str(cli_workspace["perf_path"]),
            "--selector", "KNN", "--store", str(store), "--window", "64", "--stride", "32",
        ]) == 0
        assert (store / "KNN" / "manifest.json").exists()

    def test_evaluate(self, cli_workspace, trained_store, capsys):
        assert main([
            "evaluate", str(cli_workspace["data_dir"]), str(cli_workspace["perf_path"]),
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "average:" in out
        assert "selection accuracy" in out

    def test_select(self, cli_workspace, trained_store, capsys):
        series_file = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        assert main([
            "select", str(series_file),
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "selected model" in out
        assert "Vote share" in out

    def test_detect_writes_scores(self, cli_workspace, trained_store, capsys):
        series_file = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        scores_out = cli_workspace["root"] / "scores.csv"
        assert main([
            "detect", str(series_file),
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
            "--detector-window", "16", "--scores-output", str(scores_out),
        ]) == 0
        assert scores_out.exists()
        scores = np.loadtxt(scores_out, delimiter=",", skiprows=1)
        assert len(scores) == 400
        assert "auc_pr" in capsys.readouterr().out

    def test_batch_select_reports_throughput_and_cache(self, cli_workspace, trained_store, capsys):
        assert main([
            "batch-select", str(cli_workspace["data_dir"]),
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
            "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Selected model" in out
        assert "cache hits" in out
        assert "pass 2 (warm) throughput" in out

    def test_serve_answers_json_lines_and_caches(self, cli_workspace, trained_store, capsys, monkeypatch):
        import io

        series_file = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        lines = f"{series_file}\n{series_file}\nnot/a/file.csv\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main([
            "serve",
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
        ]) == 0
        captured = capsys.readouterr()
        answers = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert len(answers) == 3
        assert not answers[0]["cached"] and answers[1]["cached"]
        assert answers[0]["selected_model"] == answers[1]["selected_model"]
        assert "error" in answers[2]
        assert "cache hits" in captured.err

    def test_serve_answers_non_finite_series_with_an_error_line(self, cli_workspace,
                                                                trained_store, capsys,
                                                                monkeypatch, tmp_path):
        import io

        series_file = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        broken = _with_value_at(series_file, tmp_path, 120, "nan")
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{broken}\n{series_file}\n"))
        assert main([
            "serve",
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
        ]) == 0
        answers = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                   if line.strip()]
        assert len(answers) == 2
        assert set(answers[0]) == {"series", "error"}
        assert answers[0]["series"] == str(broken)
        assert re.fullmatch(r"selection .*'broken'.* at index 120", answers[0]["error"])
        assert answers[1]["selected_model"] is not None

    def test_select_exits_with_the_non_finite_error(self, cli_workspace, trained_store,
                                                    tmp_path):
        series_file = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        broken = _with_value_at(series_file, tmp_path, 30, "-inf")
        with pytest.raises(SystemExit, match=r"^selection .*'broken'.* at index 30$"):
            main(["select", str(broken), "--store", str(trained_store), "--name", "mlp",
                  "--window", "64"])

    @pytest.mark.parametrize("command", ["select", "detect"])
    @pytest.mark.parametrize("case", ["malformed-csv", "empty-npz", "missing"])
    def test_unreadable_series_file_exits_with_its_reason(self, trained_store, tmp_path,
                                                          command, case):
        if case == "malformed-csv":
            path, reason = tmp_path / "bad.csv", r"bad\.csv: non-numeric value 'abc' at row 1$"
            path.write_text("value\nabc\n")
        elif case == "empty-npz":
            path, reason = tmp_path / "empty.npz", r"'series' array is empty$"
            np.savez(path, series=np.zeros(0))
        else:
            path, reason = tmp_path / "no_such.csv", r"no_such\.csv$"
        with pytest.raises(SystemExit, match=reason):
            main([command, str(path), "--store", str(trained_store), "--name", "mlp",
                  "--window", "64"])

    def test_stream_replays_files_as_ticks(self, cli_workspace, trained_store, capsys):
        files = sorted(cli_workspace["data_dir"].glob("*.csv"))[:2]
        assert main([
            "stream", str(files[0]), str(files[1]),
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
            "--chunk", "100", "--score", "--detector-window", "16",
        ]) == 0
        captured = capsys.readouterr()
        updates = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        # 400-point series in 100-point ticks, two streams -> 8 updates
        assert len(updates) == 8
        streams = {u["stream"] for u in updates}
        assert streams == {f.stem for f in files}
        final = updates[-1]
        assert final["length"] == 400 and final["windows"] == 6
        assert final["selected_model"] is not None
        assert "forward-pass windows" in captured.err

    def test_stream_reads_stdin_ticks(self, trained_store, capsys, monkeypatch):
        import io

        lines = "\n".join(["1.5", "2.5", '{"stream": "other", "values": [1, 2, 3]}',
                           "not-a-number"]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main([
            "stream",
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
        ]) == 0
        captured = capsys.readouterr()
        answers = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert len(answers) == 4
        assert answers[0]["stream"] == "stdin" and answers[0]["provisional"]
        assert answers[2]["stream"] == "other"
        assert "error" in answers[3]

    def test_stream_answers_a_non_finite_tick_with_an_error_line(self, trained_store, capsys,
                                                                 monkeypatch):
        import io

        lines = "\n".join(["1.5", "nan", '{"stream": "other", "values": [1, -Infinity]}',
                           "2.5"]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main([
            "stream",
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
        ]) == 0
        answers = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                   if line.strip()]
        assert len(answers) == 4
        assert re.fullmatch(r"stream engine .*'stdin': value nan at index 1", answers[1]["error"])
        assert re.fullmatch(r"stream engine .*'other': value -inf at index 1", answers[2]["error"])
        assert set(answers[1]) == set(answers[2]) == {"error"}
        assert answers[3]["stream"] == "stdin" and answers[3]["length"] == 2

    def test_stream_emit_changes_filters_steady_updates(self, cli_workspace, trained_store,
                                                        capsys):
        series_file = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        assert main([
            "stream", str(series_file),
            "--store", str(trained_store), "--name", "mlp", "--window", "64",
            "--chunk", "50", "--emit", "changes",
        ]) == 0
        all_out = capsys.readouterr()
        changed = [json.loads(line) for line in all_out.out.splitlines() if line.strip()]
        assert all(u["changed"] or u["drift_triggered"] for u in changed)

    def test_stream_missing_file_exits_cleanly(self, trained_store):
        with pytest.raises(SystemExit):
            main(["stream", "no/such/file.csv",
                  "--store", str(trained_store), "--name", "mlp"])

    @pytest.mark.parametrize("command", ["stream", "serve-sharded"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--window", "0", "window must be >= 1"),
        ("--stride", "-8", "stride must be >= 1 (or None for non-overlapping)"),
    ])
    def test_bad_engine_config_exits_with_its_message(self, cli_workspace, trained_store,
                                                      command, flag, value, message):
        series = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        with pytest.raises(SystemExit) as caught:
            main([command, str(series), "--store", str(trained_store), "--name", "mlp",
                  flag, value])
        assert str(caught.value.code) == message

    @pytest.mark.parametrize("command", ["batch-select", "serve"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--window", "0", "window must be >= 1"),
        ("--window", "-5", "window must be >= 1"),
        ("--cache-capacity", "0", "cache_capacity must be >= 1"),
    ])
    def test_bad_serving_config_exits_with_its_message(self, cli_workspace, trained_store,
                                                       monkeypatch, command, flag, value,
                                                       message):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        inputs = [str(cli_workspace["data_dir"])] if command == "batch-select" else []
        with pytest.raises(SystemExit) as caught:
            main([command, *inputs, "--store", str(trained_store), "--name", "mlp", flag, value])
        assert str(caught.value.code) == message

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_batch_select_rejects_a_window_budget_below_one(self, trained_store, tmp_path,
                                                            budget):
        # checked before the data directory is read
        with pytest.raises(SystemExit) as caught:
            main(["batch-select", str(tmp_path / "no-such-dir"), "--store", str(trained_store),
                  "--name", "mlp", "--window", "64", "--max-batch-windows", budget])
        assert str(caught.value.code) == "--max-batch-windows must be >= 1"

    @pytest.mark.parametrize("command, flag", [
        ("serve-sharded", "--shards"), ("serve-sharded", "--chunk"), ("stream", "--chunk"),
    ])
    def test_replay_flag_below_one_exits_with_its_message(self, cli_workspace, trained_store,
                                                          command, flag):
        series = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        with pytest.raises(SystemExit) as caught:
            main([command, str(series), "--store", str(trained_store), "--name", "mlp",
                  flag, "0"])
        assert str(caught.value.code) == f"{flag} must be >= 1"

    @pytest.mark.parametrize("command", ["stream", "serve-sharded"])
    def test_flag_error_closes_the_tracer_and_audit_file(self, cli_workspace, trained_store,
                                                         tmp_path, monkeypatch, command):
        from repro import obs
        from repro.obs import trace

        opened = []

        class RecordingAuditLog(obs.AuditLog):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(obs, "AuditLog", RecordingAuditLog)
        series = sorted(cli_workspace["data_dir"].glob("*.csv"))[0]
        # serve-sharded has no --trace flag
        trace_flag = ["--trace", str(tmp_path / "trace.jsonl")] if command == "stream" else []
        with pytest.raises(SystemExit) as caught:
            main([command, str(series), "--store", str(trained_store), "--name", "mlp",
                  "--window", "0", "--audit", str(tmp_path / "audit.jsonl"), *trace_flag])
        assert str(caught.value.code) == "window must be >= 1"
        assert trace._default_tracer is trace.NULL_TRACER
        assert len(opened) == 1 and opened[0]._file is None

    def test_serve_sharded_matches_single_process_stream(self, cli_workspace,
                                                         trained_store, capsys):
        files = sorted(cli_workspace["data_dir"].glob("*.csv"))[:2]
        base = ["--store", str(trained_store), "--name", "mlp",
                "--window", "64", "--chunk", "100"]
        assert main(["stream", str(files[0]), str(files[1]), *base]) == 0
        single = capsys.readouterr()
        assert main(["serve-sharded", str(files[0]), str(files[1]),
                     *base, "--shards", "2"]) == 0
        sharded = capsys.readouterr()

        def by_tick(out):
            updates = [json.loads(line) for line in out.splitlines() if line.strip()]
            return {(u["stream"], u["length"]): u for u in updates}

        # the sharded replay is bitwise-equal to the in-process engine
        assert by_tick(sharded.out) == by_tick(single.out)
        assert "restarts" in sharded.err

    def test_serve_sharded_requires_files_or_port(self, trained_store):
        with pytest.raises(SystemExit):
            main(["serve-sharded", "--store", str(trained_store), "--name", "mlp"])

    def test_corrupt_store_entry_exits_with_its_reason(self, trained_store, tmp_path):
        shutil.copytree(trained_store / "mlp", tmp_path / "t")
        manifest = tmp_path / "t" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "selector_type": "NoSuchSelector"}))
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--store", str(tmp_path), "--name", "t", "--window", "64"])
        assert str(caught.value.code) == ("stored selector 't' is corrupt: "
                                          "unknown selector type 'NoSuchSelector'")

    def test_list_selectors(self, trained_store, capsys):
        assert main(["list-selectors", "--store", str(trained_store)]) == 0
        assert "mlp" in capsys.readouterr().out

    def test_list_selectors_empty_store(self, tmp_path, capsys):
        assert main(["list-selectors", "--store", str(tmp_path / "empty")]) == 0
        assert "no selectors stored" in capsys.readouterr().out


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has already exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestServeShardedShutdown:
    def test_sigterm_stops_every_shard(self, tmp_path):
        """SIGTERM ends ``serve-sharded --port`` as Ctrl-C does: exit 0, no shard left."""
        selector = make_selector("MLP", window=64, n_classes=len(DEFAULT_MODEL_NAMES),
                                 hidden=8, feature_dim=4, seed=0)
        SelectorStore(tmp_path / "store").save("untrained", selector)
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        front_end = subprocess.Popen(
            [sys.executable, "-m", "repro.system.cli", "serve-sharded", "--port", "0",
             "--shards", "2", "--store", str(tmp_path / "store"), "--name", "untrained",
             "--window", "64"],
            stdout=subprocess.PIPE, text=True, env=env)
        shards = []
        try:
            ready, _, _ = select.select([front_end.stdout], [], [], 60.0)
            assert ready, "serve-sharded announced no port within 60 s"
            assert "listening" in json.loads(front_end.stdout.readline())
            children = Path(f"/proc/{front_end.pid}/task/{front_end.pid}/children")
            if not children.exists():
                pytest.skip("the kernel does not list a process's children")
            shards = [int(pid) for pid in children.read_text().split()]
            assert len(shards) == 2 and all(map(_running, shards))

            front_end.send_signal(signal.SIGTERM)
            assert front_end.wait(timeout=30.0) == 0  # docs/cli.md: exits 0
            deadline = time.monotonic() + 5.0
            while any(map(_running, shards)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, shards)), "a shard outlived its front end"
        finally:
            for pid in [front_end.pid, *shards]:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            front_end.wait(timeout=10.0)
