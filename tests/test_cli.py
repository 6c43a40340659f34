"""CLI: exit codes, schema-valid JSON, reproducibility, and round-trips."""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from polarkit import cli
from polarkit.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, main
from polarkit.kernelio import read_kernel, write_kernel
from polarkit.pdp import compute_pdp, target_profile
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
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--kernel", kernel_file, "--reuse", "bogus"])
    assert exc.value.code == EXIT_USAGE


def test_brute_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "k8.txt"
    code, _ = _run(capsys, ["brute", "--ell", "8", "--out", str(out_path)])
    assert code == EXIT_OK
    kernel = read_kernel(out_path)
    assert compute_pdp(kernel).distances == target_profile(8).distances


def test_brute_step_limit_exit_1(capsys):
    code, _ = _run(capsys, ["brute", "--ell", "8", "--limit", "2"])
    assert code == EXIT_LIMIT


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
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    _run(capsys, ["random", "--ell", "4", "--iters", "2", "--seed", "1", "--jobs", "4"])
    assert asked == [2]


def test_random_hist_out(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    code, _ = _run(
        capsys,
        ["random", "--ell", "4", "--iters", "50", "--seed", "1", "--hist-out", str(hist)],
    )
    assert code == EXIT_OK
    assert hist.read_text().splitlines()[0] == "complexity,count"


def test_train_smoke(capsys, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "ell=4\ntotal_episodes=10\nupdate_interval=5\nbatch_size=16\n"
        "updates_per_iteration=2\nsimulations=4\nsampled_actions=4\nseed=2\n"
    )
    out_dir = tmp_path / "run"
    code, out = _run(
        capsys, ["train", "--config", str(cfg), "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    assert "ell=4" in out  # resolved config is echoed
    assert (out_dir / "training_log.csv").exists()


def test_train_requires_ell_or_config(capsys):
    code, _ = _run(capsys, ["train"])
    assert code == EXIT_USAGE


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
