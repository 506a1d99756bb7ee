"""Configuration layering: defaults, file, environment, CLI flags."""

from __future__ import annotations

import importlib
import json
import re
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from fairprobe.config import (
    ConfigError,
    RunConfig,
    apply_settings,
    build_config,
    env_settings,
    load_config_file,
)


def test_defaults():
    config = RunConfig()
    assert config.registry_url is None
    assert config.out == "runs"
    assert config.run_id is None
    assert config.workers_harvest == 4
    assert config.workers_probe == 34
    assert config.timeout == 20.0
    assert config.doi_resolver == "https://doi.org/"
    assert config.geo_require_coordinates is False
    assert config.politeness_delay == 1000.0
    assert config.per_host_delay == 1000.0
    assert len(fields(RunConfig)) == 12


def test_key_value_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "\n".join(
            [
                "# harvest settings",
                "",
                "timeout = 7.5",
                "workers_harvest=2",
                "workers_probe = 3",
                "geo_require_coordinates = yes",
                "registry_url = http://registry.example",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    config = build_config(config_file=path, environ={})
    assert config.timeout == 7.5
    assert config.workers_harvest == 2
    assert config.workers_probe == 3
    assert config.geo_require_coordinates is True
    assert config.registry_url == "http://registry.example"


def test_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "timeout": 3.25,
                "run_id": None,
                "allow_seed_fallback": True,
                "seed_file": "seeds.txt",
            }
        ),
        encoding="utf-8",
    )
    config = build_config(config_file=path, environ={})
    assert config.timeout == 3.25
    assert config.run_id is None
    assert config.allow_seed_fallback is True
    assert config.seed_file == "seeds.txt"


def test_precedence_file_env_cli(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("timeout=1\nworkers_harvest=9\nout=file-out\n", encoding="utf-8")
    environ = {
        "FAIRPROBE_TIMEOUT": "2",
        "FAIRPROBE_OUT": "env-out",
        "HOME": "/nowhere",
    }
    config = build_config(
        config_file=path,
        cli_settings={"timeout": "3"},
        environ=environ,
    )
    assert config.timeout == 3.0  # CLI beats environment
    assert config.out == "env-out"  # environment beats file
    assert config.workers_harvest == 9  # file beats defaults


def test_unknown_env_keys_are_ignored(caplog):
    with caplog.at_level("WARNING"):
        settings = env_settings({"FAIRPROBE_FLUX_CAPACITOR": "1"})
    assert settings == {}
    assert any("FAIRPROBE_FLUX_CAPACITOR" in r.message for r in caplog.records)


def test_unknown_file_key_is_an_error(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("not_a_setting=1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        build_config(config_file=path, environ={})


@pytest.mark.parametrize(
    "key",
    [
        "max_pages", "retries", "max_redirects", "allow_partial",
        "workers_select", "detail_workers",
    ],
)
def test_a_removed_setting_is_an_unknown_key(tmp_path, caplog, key):
    path = tmp_path / "run.conf"
    path.write_text(f"{key} = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        build_config(config_file=path, environ={})
    with caplog.at_level("WARNING"):
        config = build_config(environ={"FAIRPROBE_" + key.upper(): "1"})
    assert config == RunConfig()
    assert any("FAIRPROBE_" + key.upper() in r.message for r in caplog.records)


def test_malformed_file_line_is_an_error(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_json_file_must_hold_an_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "nowhere.conf")


def test_broken_json_is_a_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"out": ', encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config_file(path)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("False", False), ("no", False), ("OFF", False),
    ],
)
def test_boolean_spellings(raw, expected):
    config = apply_settings(RunConfig(), {"geo_require_coordinates": raw})
    assert config.geo_require_coordinates is expected


def test_bad_boolean_rejected():
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"geo_require_coordinates": "maybe"})


def test_numeric_conversion_errors():
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"timeout": "fast"})
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"workers_probe": "many"})


def test_empty_optional_strings_become_none():
    config = apply_settings(RunConfig(run_id="x"), {"run_id": ""})
    assert config.run_id is None


def test_snapshot_rebuilds_equal_config():
    config = apply_settings(
        RunConfig(),
        {"timeout": "4", "workers_probe": "2", "registry_url": "http://r.example"},
    )
    snap = json.loads(json.dumps(config.snapshot()))
    rebuilt = apply_settings(RunConfig(), snap)
    assert rebuilt == config


RANGES = {  # setting: (lowest value accepted, a value rejected)
    "timeout": (0.001, 0),
    "workers_harvest": (1, 0),
    "workers_probe": (1, 0),
    "politeness_delay": (0.0, -1.0),
    "per_host_delay": (0.0, -1.0),
}


@pytest.mark.parametrize("key", list(RANGES))
def test_out_of_range_setting_is_a_config_error(key):
    lowest, bad = RANGES[key]
    assert getattr(RunConfig(**{key: lowest}), key) == lowest
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: bad})
    config = RunConfig()
    with pytest.raises(ConfigError, match=key):
        apply_settings(config, {key: str(bad)})
    assert config == RunConfig()
    with pytest.raises(ConfigError, match=key):
        build_config(environ={"FAIRPROBE_" + key.upper(): str(bad)})


@pytest.mark.parametrize(
    "key,bad",
    [
        ("timeout", float("inf")),
        ("timeout", 1e12),  # seconds: socket.settimeout raises OverflowError
        ("politeness_delay", float("inf")),
        ("per_host_delay", float("inf")),
        ("per_host_delay", 1e15),  # ms: time.sleep raises OverflowError
    ],
)
def test_a_timeout_or_delay_no_request_can_use_is_a_config_error(tmp_path, key, bad):
    largest = threading.TIMEOUT_MAX * (1 if key == "timeout" else 1000)
    assert getattr(RunConfig(**{key: largest}), key) == largest
    with pytest.raises(ConfigError, match=f"{key}: .* must be at most"):
        RunConfig(**{key: bad})
    path = tmp_path / "run.conf"
    path.write_text(f"{key} = {bad!r}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        build_config(path, environ={})
    with pytest.raises(ConfigError, match=key):
        build_config(environ={"FAIRPROBE_" + key.upper(): repr(bad)})


@pytest.mark.parametrize("key", ["out", "doi_resolver"])
def test_a_null_text_setting_is_a_config_error(tmp_path, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: None}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key}: must not be null"):
        build_config(path, environ={})
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: None})
    # a setting that may be unset takes null as unset
    path.write_text(json.dumps({"registry_url": None, "run_id": None}),
                    encoding="utf-8")
    config = build_config(path, environ={})
    assert (config.registry_url, config.run_id) == (None, None)


@pytest.mark.parametrize(
    "key,bad",
    [
        ("doi_resolver", "doi.example/"),
        ("doi_resolver", "ftp://doi.example/"),
        ("doi_resolver", ""),
        ("registry_url", "registry.example/api/v1"),
        ("registry_url", "http:///api/v1"),
    ],
)
def test_a_url_setting_must_be_an_absolute_web_url(tmp_path, key, bad):
    with pytest.raises(ConfigError, match=f"{key}: .* is not an absolute http"):
        RunConfig(**{key: bad})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: bad}), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        build_config(path, environ={})
    if bad:  # an empty variable unsets registry_url, as an empty value does
        with pytest.raises(ConfigError, match=key):
            build_config(environ={"FAIRPROBE_" + key.upper(): bad})
    upper = "HTTPS://x.example/"
    assert getattr(RunConfig(**{key: upper}), key) == upper


@pytest.mark.parametrize(
    "key,value",
    [
        ("workers_probe", 2.5),
        ("workers_harvest", 1.5),
        ("workers_harvest", True),
        ("workers_probe", False),
        ("timeout", True),
        ("per_host_delay", False),
    ],
)
def test_bool_or_fraction_for_a_number_is_a_config_error(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: value})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        build_config(path, environ={})


@pytest.mark.parametrize(
    "key,value",
    [
        ("out", ["a", "b"]),
        ("run_id", True),
        ("seed_file", {"x": 1}),
        ("doi_resolver", False),
        ("registry_url", ["http://r.example/"]),
    ],
)
def test_a_bool_list_or_object_for_a_text_setting_is_a_config_error(
    tmp_path, key, value
):
    with pytest.raises(ConfigError, match=f"{key}: .* is not text"):
        RunConfig(**{key: value})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        build_config(path, environ={})
    # a number still names a run, as its text would
    assert RunConfig(run_id=7).run_id == "7"


def test_whole_float_for_an_int_setting_is_converted():
    config = RunConfig(workers_probe=2.0, workers_harvest=1.0)
    assert (config.workers_probe, config.workers_harvest) == (2, 1)
    assert type(config.workers_probe) is int


# every setting perfbench/bench.py gives the benchmark's clients
BENCHMARK_SETTINGS = {
    "registry_url", "doi_resolver", "out", "timeout", "politeness_delay",
    "per_host_delay", "workers_harvest", "workers_probe",
}


def test_the_benchmark_keeps_every_setting_it_sets(monkeypatch):
    # run_config drops any key that is not a RunConfig field, so a removed
    # field would change the benchmark's load without an error
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave it unwritten
    try:
        bench = importlib.import_module("bench")
        settings = bench.run_config(
            {"registry_url": "http://r.example", "resolver_base": "http://d.example/"},
            Path("runs"),
        )
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == perfbench:
                del sys.modules[name]
    assert set(settings) == BENCHMARK_SETTINGS
    config = RunConfig(**settings)
    assert config.workers_harvest == config.workers_probe == bench.WORKERS


def readme_default(value) -> str:
    """How the README's configuration table writes a default value."""
    if value is None:
        return "unset"
    if isinstance(value, bool):
        return str(value).lower()
    return f"`{value}`" if isinstance(value, str) else str(value)


def test_readme_table_lists_every_setting():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    section = section.split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]*?) +\|", section, flags=re.MULTILINE)
    defaults = RunConfig()
    assert rows == [
        (f.name, readme_default(getattr(defaults, f.name)))
        for f in fields(RunConfig)
    ]
