"""CLI: exit codes, schema-valid JSON, reproducibility, and round-trips."""

from __future__ import annotations

import argparse
import json
import re
from importlib import resources

import jsonschema
import pytest

from polarkit import cli
from polarkit.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, build_parser, main
from polarkit.kernelio import read_kernel, write_kernel
from polarkit.pdp import PartialDistanceProfile, compute_pdp, target_profile
from polarkit.reference import ARIKAN, BEST12


def _schema(name: str) -> dict:
    text = resources.files("polarkit.schemas").joinpath(name).read_text()
    return json.loads(text)


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "a12.txt"
    write_kernel(path, BEST12)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_pdp_command(capsys, kernel_file):
    code, out = _run(capsys, ["pdp", "--kernel", kernel_file])
    assert code == EXIT_OK
    result = json.loads(out)
    jsonschema.validate(result, _schema("pdp_result.schema.json"))
    assert tuple(result["pdp"]) == target_profile(12).distances
    assert result["exponent"] == pytest.approx(0.4825, abs=5e-4)


def test_pdp_arikan(capsys, tmp_path):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    code, out = _run(capsys, ["pdp", "--kernel", str(path)])
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["pdp"] == [1, 2]
    assert result["exponent"] == pytest.approx(0.5)


def test_pdp_parse_failure_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ell=2\n0xZZ\n0x3\n")
    code, _ = _run(capsys, ["pdp", "--kernel", str(path)])
    assert code == EXIT_USAGE


def test_pdp_singular_exit_2(capsys, tmp_path):
    path = tmp_path / "sing.txt"
    path.write_text("ell=2\n0x3\n0x3\n")
    code, _ = _run(capsys, ["pdp", "--kernel", str(path)])
    assert code == EXIT_USAGE


def test_missing_file_exit_2(capsys):
    code, _ = _run(capsys, ["pdp", "--kernel", "/nonexistent/kernel.txt"])
    assert code == EXIT_USAGE


def test_directory_as_kernel_exit_2(capsys, tmp_path):
    assert main(["pdp", "--kernel", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_as_out_exit_2(capsys, kernel_file, tmp_path):
    assert main(["pdp", "--kernel", kernel_file, "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["complexity"])  # --kernel is required
    assert exc.value.code == EXIT_USAGE


def test_complexity_command_and_reuse_ordering(capsys, kernel_file):
    code, out = _run(capsys, ["complexity", "--kernel", kernel_file])
    assert code == EXIT_OK
    default = json.loads(out)
    jsonschema.validate(default, _schema("complexity_report.schema.json"))
    assert default["total"] == sum(p["cost"] for p in default["per_phase"])
    code, out = _run(capsys, ["complexity", "--kernel", kernel_file, "--reuse", "none"])
    assert code == EXIT_OK
    none = json.loads(out)
    jsonschema.validate(none, _schema("complexity_report.schema.json"))
    assert none["total"] >= default["total"]


def test_complexity_reuse_aliases(capsys, kernel_file):
    code, out = _run(
        capsys, ["complexity", "--kernel", kernel_file, "--reuse", "all-contiguous"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["policy"] == "all_contiguous"
    code, out = _run(
        capsys, ["complexity", "--kernel", kernel_file, "--reuse", "section-tables"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, _schema("complexity_report.schema.json"))
    assert report["policy"] == "section_tables"
    for mode in ("bogus", "top-sections"):
        with pytest.raises(SystemExit) as exc:
            main(["complexity", "--kernel", kernel_file, "--reuse", mode])
        assert exc.value.code == EXIT_USAGE
        assert "choose from none, all-contiguous, section-tables" in capsys.readouterr().err


# `brute --ell 8 --out K.txt` prints this summary, byte for byte
PINNED_BRUTE8_SUMMARY = """\
{
  "pdp": [
    1,
    2,
    2,
    2,
    4,
    4,
    4,
    8
  ],
  "exponent": 0.5,
  "kernel_rows": [
    "0x20",
    "0x3",
    "0x5",
    "0x28",
    "0x53",
    "0x74",
    "0x3a",
    "0xff"
  ]
}
"""


def test_brute_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "k8.txt"
    code, out = _run(capsys, ["brute", "--ell", "8", "--out", str(out_path)])
    assert code == EXIT_OK
    assert out == PINNED_BRUTE8_SUMMARY
    kernel = read_kernel(out_path)
    assert compute_pdp(kernel).distances == target_profile(8).distances
    assert [f"{r:#x}" for r in kernel.rows] == json.loads(out)["kernel_rows"]


def test_brute_step_limit_exit_1(capsys):
    code, _ = _run(capsys, ["brute", "--ell", "8", "--limit", "2"])
    assert code == EXIT_LIMIT


def test_brute_infeasible_exit_1(capsys, monkeypatch):
    # the last row must be 11, the only weight-2 row, and no row lies at
    # distance 2 from its span {00, 11}
    monkeypatch.setattr(cli, "target_profile", lambda ell: PartialDistanceProfile((2, 2)))
    code = main(["brute", "--ell", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_LIMIT
    assert re.search(r"^infeasible: search space exhausted after \d+ steps$", captured.err, re.M)
    assert captured.out == ""


def test_random_reproducible_and_schema(capsys):
    argv = ["random", "--ell", "4", "--iters", "150", "--seed", "3"]
    code, out1 = _run(capsys, argv)
    assert code == EXIT_OK
    code, out2 = _run(capsys, argv)
    assert out1 == out2
    stats = json.loads(out1)
    jsonschema.validate(stats, _schema("random_stats.schema.json"))
    assert stats["iterations"] == 150


def test_random_jobs_shard_equivalence(capsys):
    base = ["random", "--ell", "4", "--iters", "120", "--seed", "8"]
    _, single = _run(capsys, base)
    _, sharded = _run(capsys, base + ["--jobs", "3"])
    assert json.loads(single) == json.loads(sharded)


def test_random_jobs_capped_at_shard_count(capsys, monkeypatch):
    """One worker per shard, with no more shards than trials or CPUs."""
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    base = ["random", "--ell", "4", "--iters", "50", "--seed", "1"]
    _, single = _run(capsys, base)
    # an unknown CPU count runs one shard inline
    for cpus, workers in [(64, [50]), (3, [3]), (None, [])]:
        asked.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        _, sharded = _run(capsys, base + ["--jobs", "5000"])
        assert asked == workers, cpus
        assert json.loads(sharded) == json.loads(single)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_random_jobs_below_one_exit_2(capsys, jobs):
    code = main(["random", "--ell", "4", "--iters", "10", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"--jobs must be at least 1, got {jobs}" in err
    assert "config" not in err  # rejected before the configuration is echoed


@pytest.mark.parametrize("argv, message", [
    (["random", "--ell", "4", "--iters", "0"], "--iters must be at least 1, got 0"),
    (["random", "--ell", "4", "--iters", "-3"], "--iters must be at least 1, got -3"),
    (["random", "--ell", "17", "--iters", "10"], "unsupported kernel size ell=17"),
    (["random", "--ell", "1", "--iters", "10"], "unsupported kernel size ell=1"),
    (["brute", "--ell", "8", "--limit", "0"], "--limit must be at least 1, got 0"),
])
def test_random_and_brute_out_of_range_exit_2(capsys, argv, message):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert message in err
    assert "config" not in err  # rejected before the configuration is echoed


def test_random_unrecognized_argument_exit_2_with_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random", "--ell", "4", "--iters", "10", "--bogus"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.err.startswith("usage: polarkit random")
    assert "polarkit random: error: unrecognized arguments: --bogus" in captured.err
    assert captured.out == ""


def test_random_no_feasible_trial_exit_1(capsys):
    # seed 80 at ell=12: trials 0-4 all reach the placement cap
    code, out = _run(capsys, ["random", "--ell", "12", "--iters", "5", "--seed", "80"])
    assert code == EXIT_LIMIT
    stats = json.loads(out)
    jsonschema.validate(stats, _schema("random_stats.schema.json"))
    assert stats["feasible_count"] == 0
    assert stats["min_complexity"] is None and stats["max_complexity"] is None
    assert stats["best_kernel_rows"] is None and stats["histogram"] == {}


@pytest.mark.parametrize("command", [
    ["random", "--ell", "4", "--iters", "10"],
    ["bler", "--m", "3", "--k", "4", "--snr", "2.0", "--trials", "10", "--select-trials", "10"],
])
def test_negative_seed_exit_2_before_any_work(capsys, tmp_path, command):
    if command[0] == "bler":
        path = tmp_path / "f2.txt"
        write_kernel(path, ARIKAN)
        command = [*command, "--kernel", str(path)]
    code = main([*command, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: --seed must be at least 0, got -1" in captured.err
    assert "config" not in captured.err  # rejected before the configuration is echoed
    assert captured.out == ""


def test_random_hist_out(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    code, _ = _run(
        capsys,
        ["random", "--ell", "4", "--iters", "50", "--seed", "1", "--hist-out", str(hist)],
    )
    assert code == EXIT_OK
    assert hist.read_text().splitlines()[0] == "complexity,count"


def _assert_train_rejected(captured, out_dir):
    """A rejected train run reports only its error: no summary on stdout,
    no config echo on stderr and no `train_config.txt`."""
    assert captured.out == ""
    assert '{"config"' not in captured.err
    assert not (out_dir / "train_config.txt").exists()


def test_train_smoke(capsys, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "ell=4\ntotal_episodes=10\nupdate_interval=5\nbatch_size=16\n"
        "updates_per_iteration=2\nsimulations=4\nsampled_actions=4\nseed=2\n"
    )
    out_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["iterations"] == 2  # stdout is the run summary alone
    assert json.loads(captured.err.splitlines()[0]) == {"config": {
        "command": "train", "ell": 4, "total_episodes": 10, "update_interval": 5,
        "batch_size": 16, "updates_per_iteration": 2, "simulations": 4,
        "sampled_actions": 4, "seed": 2,
    }}
    # the run directory keeps the config a rerun takes: here the input itself
    assert (out_dir / "train_config.txt").read_text() == cfg.read_text()
    assert (out_dir / "training_log.csv").exists()


# one out-of-range value per key (below one, or negative)
BAD_TRAIN_VALUES = {"ell": 0, "update_interval": 0, "batch_size": 0, "updates_per_iteration": -1}


@pytest.mark.parametrize("key", list(BAD_TRAIN_VALUES))
def test_train_config_below_one_exit_2(capsys, tmp_path, key):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"ell=4\ntotal_episodes=10\nupdate_interval=5\n{key}={BAD_TRAIN_VALUES[key]}\n")
    out_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert key in captured.err
    assert "Traceback" not in captured.err
    _assert_train_rejected(captured, out_dir)


# settings the run cannot honour, over a base of ell=4, total_episodes=10,
# update_interval=5, each with a fragment of the message that names it
BAD_TRAIN_SETTINGS = [
    ("simulations", {"simulations": 0}),
    ("sampled_actions", {"sampled_actions": 64}),
    ("total_episodes", {"total_episodes": 12}),
    ("batch_size must not exceed the replay capacity 100000", {"batch_size": 100001}),
    # keys that are module constants, not settings: unknown whatever the value
    *[(f"line 4: unknown config key {key!r}", {key: value}) for key, value in [
        ("momentum", "nan"), ("learning_rate", "inf"), ("replay_capacity", 2**63),
        ("checkpoint_interval", 10), ("preset_bits", 1),
    ]],
]


@pytest.mark.parametrize("message, values", BAD_TRAIN_SETTINGS, ids=[
    ",".join(f"{k}={x}" for k, x in values.items()) for _, values in BAD_TRAIN_SETTINGS
])
def test_train_settings_rejected_before_echo(capsys, tmp_path, message, values):
    settings = {"ell": 4, "total_episodes": 10, "update_interval": 5, **values}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    out_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert message in captured.err
    _assert_train_rejected(captured, out_dir)


@pytest.mark.parametrize("text, message", [
    ("batch_size=1.5\n", "line 1: batch_size expects an integer, got '1.5'"),
    ("total_episodes=10\nell\n", "line 2: ell expects an integer, got ''"),
    # a tiny run if the last value won: ell=4, one episode, two simulations
    ("ell=12\ntotal_episodes=1\nupdate_interval=1\nsimulations=2\nsampled_actions=2\nell=4\n",
     "line 6: ell is set twice"),
])
def test_train_config_parse_errors_name_line_and_key(capsys, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: {message}" in captured.err
    _assert_train_rejected(captured, tmp_path / "run")
    assert not (tmp_path / "run").exists()  # rejected before training starts


def _train_exit(argv):
    """Exit code of `polarkit train`, also where argparse exits."""
    try:
        return main(["train", *argv])
    except SystemExit as exc:
        return exc.code


# `source` says where the bad value is given: in the config file, or as a
# flag, which train refuses since the config file is its one source of values
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_unsupported_ell_exit_2_before_writing(capsys, tmp_path, source):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"ell={17 if source == 'config' else 4}\ntotal_episodes=10\nupdate_interval=5\n")
    flag = ["--ell", "1"] if source == "flag" else []
    out_dir = tmp_path / "run"
    code = _train_exit(["--config", str(cfg), *flag, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    expected = "unrecognized arguments: --ell 1" if flag else "unsupported kernel size ell=17"
    assert expected in captured.err
    if flag:  # train's own parser reports it, with its usage line
        assert captured.err.startswith("usage: polarkit train")
    _assert_train_rejected(captured, out_dir)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_negative_seed_exit_2_before_writing(capsys, tmp_path, source):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("ell=4\ntotal_episodes=10\nupdate_interval=5\n"
                   + ("seed=-1\n" if source == "config" else ""))
    flag = ["--seed", "-1"] if source == "flag" else []
    out_dir = tmp_path / "run"
    code = _train_exit(["--config", str(cfg), *flag, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    expected = "unrecognized arguments: --seed -1" if flag else "error: seed must be nonnegative"
    assert expected in captured.err
    if flag:  # train's own parser reports it, with its usage line
        assert captured.err.startswith("usage: polarkit train")
    _assert_train_rejected(captured, out_dir)


@pytest.mark.parametrize("below", ["", "run"])
def test_train_out_existing_file_exit_2_before_echo(capsys, tmp_path, below):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("ell=4\ntotal_episodes=10\nupdate_interval=5\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code = main(["train", "--config", str(cfg), "--out", str(afile / below)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: --out: {afile} exists and is not a directory" in captured.err
    _assert_train_rejected(captured, afile / below)
    assert afile.read_text() == "kept\n"


def test_train_requires_config(capsys):
    """The config file is train's one source of values: without it, train
    is the same argparse usage error as `complexity` without `--kernel`."""
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == EXIT_USAGE
    assert "the following arguments are required: --config" in capsys.readouterr().err


def test_bler_command(capsys, tmp_path):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    out_csv = tmp_path / "bler.csv"
    code, _ = _run(
        capsys,
        [
            "bler", "--kernel", str(path), "--m", "4", "--k", "8",
            "--snr", "2.0", "--trials", "500", "--select-trials", "500",
            "--seed", "4", "--out", str(out_csv),
        ],
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "snr_db,trials,errors,bler"
    assert lines[1].startswith("2.0,500,")


def test_bler_code_too_long_exit_2(capsys, tmp_path):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    # a huge m is refused before ell^m is computed
    for m in ("13", "1000000000000"):
        code = main(
            [
                "bler", "--kernel", str(path), "--m", m, "--k", "4096",
                "--snr", "2.0", "--trials", "1", "--select-trials", "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, m
        assert "error: ell^m must not exceed 4096" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_bler_m_below_one_exit_2(capsys, tmp_path, m):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    code = main(
        [
            "bler", "--kernel", str(path), "--m", m, "--k", "1",
            "--snr", "2.0", "--trials", "1", "--select-trials", "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: m must be at least 1, got {m}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("k", ["0", "9"])
def test_bler_k_outside_code_exit_2_before_echo(capsys, tmp_path, k):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    code = main(
        [
            "bler", "--kernel", str(path), "--m", "3", "--k", k,
            "--snr", "2.0", "--trials", "1", "--select-trials", "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: k={k} outside [1, 8] for n=8" in captured.err
    assert "config" not in captured.err  # rejected before the configuration is echoed
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--trials", "--select-trials"])
def test_bler_trials_below_one_exit_2_before_selection(capsys, tmp_path, monkeypatch, flag):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    monkeypatch.setattr(cli, "select_frozen_set", lambda *args: pytest.fail("selection ran"))
    trials = {"--trials": "10", "--select-trials": "10", flag: "0"}
    code = main(
        [
            "bler", "--kernel", str(path), "--m", "3", "--k", "4", "--snr", "2.0",
            *[token for pair in trials.items() for token in pair],
        ]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"error: {flag} must be at least 1, got 0" in err


@pytest.mark.parametrize("command", [
    ["pdp"],
    ["bler", "--m", "1", "--k", "1", "--snr", "2.0", "--trials", "1", "--select-trials", "1"],
])
def test_one_column_kernel_file_exit_2(capsys, tmp_path, command):
    path = tmp_path / "f1.txt"
    path.write_text("ell=1\n0x1\n")
    code = main([command[0], "--kernel", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: unsupported kernel size ell=1; supported range is [2, 16]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [
    ("--snr", "4000"), ("--snr", "-4000"), ("--snr", "nan"), ("--snr", "inf"),
    ("--select-snr", "nan"),
])
def test_bler_bad_snr_exit_2(capsys, tmp_path, flag, value):
    path = tmp_path / "f2.txt"
    write_kernel(path, ARIKAN)
    out_csv = tmp_path / "bler.csv"
    snrs = {"--snr": "2.0", "--select-snr": "2.0", flag: value}
    code = main(
        [
            "bler", "--kernel", str(path), "--m", "3", "--k", "4",
            *[token for pair in snrs.items() for token in pair],
            "--trials", "10", "--select-trials", "10", "--out", str(out_csv),
        ]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"error: SNR {float(value)} dB out of range" in err
    assert "Traceback" not in err
    assert "config" not in err  # rejected before the configuration is echoed
    assert not out_csv.exists()


def _declared(default: str) -> dict[str, object]:
    """Each subparser's value of a `set_defaults` key, where it declares one."""
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: sub.get_default(default)
        for name, sub in subparsers.choices.items()
        if sub.get_default(default) is not None
    }


def _declared_floors():
    """(command, dest, floor) for every integer floor a subparser declares."""
    return [
        (name, dest, low) for name, floors in _declared("floors").items()
        for dest, low in floors.items()
    ]


def _declared_outputs():
    """(command, dest) for every file-output flag a subparser declares."""
    return [(name, dest) for name, dests in _declared("outputs").items() for dest in dests]


# arguments that parse for each command with floors or outputs, except
# --kernel; a command that gains its first must be added here
MINIMAL_ARGV = {
    "pdp": [],
    "complexity": [],
    "brute": ["--ell", "8"],
    "random": ["--ell", "4", "--iters", "10"],
    "bler": ["--m", "3", "--k", "4", "--snr", "2.0", "--trials", "10"],
}


def _minimal_argv(command, tmp_path):
    argv = [command, *MINIMAL_ARGV[command]]
    if command in ("pdp", "complexity", "bler"):
        path = tmp_path / "f2.txt"
        write_kernel(path, ARIKAN)
        argv += ["--kernel", str(path)]
    return argv


@pytest.mark.parametrize("command, dest, low", _declared_floors())
def test_every_declared_floor_exit_2_before_echo(capsys, tmp_path, command, dest, low):
    flag = "--" + dest.replace("_", "-")
    code = main([*_minimal_argv(command, tmp_path), flag, str(low - 1)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: {flag} must be at least {low}, got {low - 1}" in captured.err
    assert "config" not in captured.err  # rejected before the configuration is echoed
    assert captured.out == ""


def test_floors_declared_for_every_checked_flag():
    assert set(_declared_floors()) == {
        ("brute", "limit", 1),
        ("random", "iters", 1), ("random", "jobs", 1), ("random", "seed", 0),
        ("bler", "seed", 0), ("bler", "trials", 1), ("bler", "select_trials", 1),
    }


# every file-output flag; train --out is a directory that train creates itself
FILE_OUTPUTS = [
    ("pdp", "out"), ("complexity", "out"), ("brute", "out"),
    ("random", "out"), ("random", "hist_out"), ("bler", "out"),
]


@pytest.mark.parametrize("command, dest", FILE_OUTPUTS)
def test_output_into_missing_directory_exit_2_before_work(capsys, tmp_path, command, dest):
    """A file output into a missing directory, or onto an existing
    directory, is rejected before the configuration is echoed."""
    flag = "--" + dest.replace("_", "-")
    target = tmp_path / "nodir" / "result.txt"
    argv = _minimal_argv(command, tmp_path)
    for path, message in (
        (target, f"directory {target.parent} does not exist"),
        (tmp_path, f"{tmp_path} is a directory"),
    ):
        code = main([*argv, flag, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert f"error: {flag}: {message}" in captured.err
        assert "config" not in captured.err  # rejected before the configuration is echoed
        assert captured.out == ""
    assert not target.parent.exists()


def test_outputs_declared_for_every_file_flag():
    assert sorted(_declared_outputs()) == sorted(FILE_OUTPUTS)


def test_bler_singular_kernel_exit_2_before_echo(capsys, tmp_path):
    path = tmp_path / "sing4.txt"
    path.write_text("ell=4\n0xF\n0xF\n0x3\n0x1\n")
    code = main(
        [
            "bler", "--kernel", str(path), "--m", "2", "--k", "8",
            "--snr", "2.0", "--trials", "10", "--select-trials", "10",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: kernel must be non-singular" in captured.err
    assert "config" not in captured.err  # rejected before the configuration is echoed
    assert captured.out == ""
