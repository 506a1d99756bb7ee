"""Command-line behaviour: subcommands, config layering, exit codes."""

from __future__ import annotations

import json
import re

import pytest

from fairprobe import mockrdr
from fairprobe.cli import main
from fairprobe.config import RunConfig
from fairprobe.store import load_manifest, read_ndjson


@pytest.fixture
def small_hub(fixtures_dir, serve_script):
    return serve_script(mockrdr.load_script(fixtures_dir / "scenario_small.json"))


def write_config(tmp_path, hub, **extra) -> str:
    settings = {
        "registry_url": hub.registry_url,
        "doi_resolver": hub.resolver_base,
        "timeout": 5.0,
        "politeness_delay": 0.0,
        "per_host_delay": 0.0,
        "workers_probe": 8,
    }
    settings.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings), encoding="utf-8")
    return str(path)


def run_dirs(out_dir):
    if not out_dir.is_dir():
        return []
    return sorted(p for p in out_dir.iterdir() if (p / "manifest.json").exists())


def test_run_all_from_config_file(tmp_path, small_hub, capsys):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    code = main(["run-all", "--config", config_file, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "run complete:" in printed

    dirs = run_dirs(out)
    assert len(dirs) == 1
    doc = json.loads((dirs[0] / "report.json").read_text(encoding="utf-8"))
    assert doc["d_size"] > 0
    manifest = load_manifest(dirs[0])
    assert all(manifest.status(n) == "complete" for n in (1, 2, 3, 4, 5))


def test_run_all_without_run_id_makes_fresh_runs(tmp_path, small_hub):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    assert main(["run-all", "--config", config_file, "--out", str(out)]) == 0
    assert main(["run-all", "--config", config_file, "--out", str(out)]) == 0
    assert len(run_dirs(out)) == 2


def test_step_sequence_resumes_newest_run(tmp_path, small_hub, capsys):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    for number in ("1", "2", "3"):
        code = main(["step", number, "--config", config_file, "--out", str(out)])
        assert code == 0
    dirs = run_dirs(out)
    assert len(dirs) == 1  # steps 2 and 3 found the run step 1 created
    manifest = load_manifest(dirs[0])
    assert manifest.status(3) == "complete"
    assert manifest.status(4) == "pending"
    printed = capsys.readouterr().out
    assert "step 3 complete:" in printed


def test_step_continues_the_newest_run_whatever_its_name(tmp_path, small_hub, capsys):
    out = tmp_path / "runs"
    named = write_config(tmp_path, small_hub, run_id="baseline")
    assert main(["step", "1", "--config", named, "--out", str(out)]) == 0
    # "baseline" sorts after every timestamped name, but was created earlier
    manifest = out / "baseline" / "manifest.json"
    document = json.loads(manifest.read_text(encoding="utf-8"))
    document["created"] = "2000-01-01T00:00:00+00:00"
    manifest.write_text(json.dumps(document), encoding="utf-8")
    config_file = write_config(tmp_path, small_hub)
    assert main(["run-all", "--config", config_file, "--out", str(out)]) == 0
    newest = next(path for path in run_dirs(out) if path.name != "baseline")
    capsys.readouterr()

    assert main(["step", "2", "--config", config_file, "--out", str(out)]) == 0
    assert f"step 2 complete: {newest}" in capsys.readouterr().out
    assert not (out / "baseline" / "providers.ndjson").exists()


def test_stepping_to_the_end_writes_the_report(tmp_path, small_hub):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    for number in ("1", "2", "3", "4", "5"):
        assert main(["step", number, "--config", config_file, "--out", str(out)]) == 0
    run_dir = run_dirs(out)[0]
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert doc["d_size"] > 0
    for name in ("repositories.csv", "criteria.csv", "apis.csv", "fair_coverage.txt"):
        assert (run_dir / name).exists()


def test_step_flags_override_config(tmp_path, small_hub):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    assert main([
        "step", "1", "--config", config_file, "--out", str(out),
        "--timeout", "7", "--workers-probe", "3",
    ]) == 0
    snapshot = load_manifest(run_dirs(out)[0]).config_snapshot
    assert (snapshot["timeout"], snapshot["workers_probe"]) == (7.0, 3)


@pytest.mark.parametrize(
    "key, value",
    [
        ("registry_url", "http://127.0.0.1:9/registry"),
        ("seed_file", "seeds.txt"),
        ("allow_seed_fallback", True),
        ("doi_resolver", "http://127.0.0.1:9/resolve/"),
        ("geo_require_coordinates", True),
        # a probe that ran out of the timeout is stored as not retrievable
        ("timeout", 7.0),
    ],
)
def test_a_resume_with_another_setting_is_refused(
    tmp_path, small_hub, capsys, key, value
):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    assert main(["step", "1", "--config", config_file, "--out", str(out)]) == 0
    manifest = run_dirs(out)[0] / "manifest.json"
    before = manifest.read_bytes()
    started_with = load_manifest(run_dirs(out)[0]).config_snapshot[key]
    capsys.readouterr()

    drifted = write_config(tmp_path, small_hub, **{key: value})
    assert main(["step", "2", "--config", drifted, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"was started with {key}={started_with!r}, not {value!r}" in err
    assert manifest.read_bytes() == before
    assert not (run_dirs(out)[0] / "providers.ndjson").exists()


def test_a_resume_may_change_how_the_run_goes(tmp_path, small_hub):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    assert main(["step", "1", "--config", config_file, "--out", str(out)]) == 0
    faster = write_config(tmp_path, small_hub, politeness_delay=5.0,
                          per_host_delay=5.0, workers_harvest=2)
    assert main(["step", "2", "--config", faster, "--out", str(out),
                 "--workers-probe", "3"]) == 0
    assert load_manifest(run_dirs(out)[0]).status(2) == "complete"


@pytest.mark.parametrize("flag", ["--max-pages", "--retries", "--workers-select"])
def test_a_removed_flag_is_a_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["run-all", "--out", str(tmp_path / "runs"), flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_help_texts_name_the_built_in_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["run-all", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    defaults = RunConfig()
    for flag, value in [
        ("--workers-harvest N", defaults.workers_harvest),
        ("--workers-probe N", defaults.workers_probe),
        ("--timeout SECONDS", f"{defaults.timeout:g}"),
        ("--doi-resolver URL", defaults.doi_resolver),
    ]:
        assert re.search(rf"{flag} [^(]*\(default {re.escape(str(value))}\)", text), flag
    assert "--max-pages" not in text and "--retries" not in text
    assert "--workers-select" not in text
    assert "most requests in flight at once in steps 1-3" in text


def test_step_without_any_run_is_an_error(tmp_path, capsys):
    code = main(["step", "4", "--out", str(tmp_path / "nothing")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "not json",
        "[]",
        '{"run_id": "x"}',
        '{"run_id": "x", "created": "2026", "steps": {"a": {}}}',
        '{"run_id": "x", "created": "2026", "steps": []}',
        '{"run_id": "x", "created": "2026", "steps": {"1": []}}',
        '{"run_id": "x", "created": "2026", "config_snapshot": []}',
    ],
    ids=[
        "empty-object",
        "not-json",
        "not-an-object",
        "no-created",
        "step-key-not-a-number",
        "steps-not-an-object",
        "step-not-an-object",
        "config-snapshot-not-an-object",
    ],
)
def test_a_manifest_that_is_not_a_fairprobe_manifest_exits_2(tmp_path, capsys, text):
    out = tmp_path / "runs"
    manifest = out / "x" / "manifest.json"
    manifest.parent.mkdir(parents=True)
    manifest.write_text(text, encoding="utf-8")
    # step finds the newest run by reading every manifest under out
    assert main(["step", "2", "--out", str(out)]) == 2
    assert f"error: {manifest} is not a fairprobe manifest" in capsys.readouterr().err
    config_file = tmp_path / "x.json"
    config_file.write_text(json.dumps({"run_id": "x"}), encoding="utf-8")
    assert main(["run-all", "--config", str(config_file), "--out", str(out)]) == 2
    assert f"error: {manifest} is not a fairprobe manifest" in capsys.readouterr().err
    assert manifest.read_text(encoding="utf-8") == text


def test_step_on_incomplete_predecessor_is_an_error(tmp_path, small_hub, capsys):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    assert main(["step", "1", "--config", config_file, "--out", str(out)]) == 0
    code = main(["step", "3", "--config", config_file, "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_registry_subcommand_live(tmp_path, small_hub, capsys):
    target = tmp_path / "repos.ndjson"
    code = main([
        "registry", "--registry-url", small_hub.registry_url,
        "--out", str(target),
    ])
    assert code == 0
    rows = read_ndjson(target)
    assert {r["registry_id"] for r in rows} == {
        "coastal-imagery", "survey-scans", "rest-only-archive",
        "dublin-core-only",
    }
    assert "4 repositories" in capsys.readouterr().out


def test_registry_subcommand_reads_the_environment(
    tmp_path, small_hub, capsys, monkeypatch
):
    monkeypatch.setenv("FAIRPROBE_REGISTRY_URL", small_hub.registry_url)
    target = tmp_path / "repos.ndjson"
    assert main(["registry", "--out", str(target)]) == 0
    assert len(read_ndjson(target)) == 4
    capsys.readouterr()
    monkeypatch.setenv("FAIRPROBE_TIMEOUT", "0")
    assert main(["registry", "--out", str(target), "--timeout", "5"]) == 2
    assert "error: timeout: 0.0 must be greater than 0" in capsys.readouterr().err


def test_registry_subcommand_seed_file(tmp_path, capsys):
    seed = tmp_path / "seed.txt"
    seed.write_text(
        "r1|Alpha|oai-pmh=http://alpha.example/oai\nr2|Beta|\n", encoding="utf-8"
    )
    target = tmp_path / "repos.ndjson"
    code = main(["registry", "--seed-file", str(seed), "--out", str(target)])
    assert code == 0
    rows = read_ndjson(target)
    assert [r["registry_id"] for r in rows] == ["r1", "r2"]


def test_registry_subcommand_without_source_is_an_error(capsys):
    code = main(["registry"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_key=1\n", encoding="utf-8")
    code = main(["run-all", "--config", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_a_removed_setting_in_the_config_file_exits_2(tmp_path, capsys):
    old = tmp_path / "old.conf"
    for key, value in [
        ("max_pages", "none"), ("workers_select", "12"), ("detail_workers", "4")
    ]:
        old.write_text(f"{key} = {value}\n", encoding="utf-8")
        code = main(["run-all", "--config", str(old), "--out", str(tmp_path / "runs")])
        assert code == 2
        assert f"error: unknown configuration key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_out_of_range_setting_exits_before_the_run_starts(tmp_path, small_hub, capsys):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub, workers_probe=0)
    code = main(["run-all", "--config", config_file, "--out", str(out)])
    assert code == 2
    assert "error: workers_probe" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "variable",
    ["FAIRPROBE_TIMEOUT", "FAIRPROBE_POLITENESS_DELAY", "FAIRPROBE_PER_HOST_DELAY"],
)
def test_an_infinite_timeout_or_delay_exits_before_the_run_starts(
    tmp_path, small_hub, capsys, monkeypatch, variable
):
    out = tmp_path / "runs"
    config_file = write_config(tmp_path, small_hub)
    monkeypatch.setenv(variable, "inf")
    code = main(["run-all", "--config", config_file, "--out", str(out)])
    assert code == 2
    key = variable.removeprefix("FAIRPROBE_").lower()
    assert f"error: {key}: inf must be at most" in capsys.readouterr().err
    assert not out.exists()
