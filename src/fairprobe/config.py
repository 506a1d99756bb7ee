"""Run configuration: defaults, config file, environment, CLI flags.

Precedence, lowest to highest: built-in defaults, config file, environment
variables prefixed FAIRPROBE_, command-line flags. The file may be simple
``key=value`` lines or a JSON object carrying the same keys.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping
from urllib.parse import urlparse

logger = logging.getLogger(__name__)

ENV_PREFIX = "FAIRPROBE_"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Every setting of a run.

    ``RunConfig(...)`` converts every field to its annotated type and checks
    its range, and ``apply_settings`` does the same for each key it sets; a
    bad value raises ``ConfigError`` naming the key.
    """

    registry_url: str | None = None
    seed_file: str | None = None
    out: str = "runs"
    run_id: str | None = None  # unset means a fresh run
    workers_harvest: int = 4  # steps 1-3: most requests in flight at once
    workers_probe: int = 34  # step 5: most probe requests in flight at once
    timeout: float = 20.0
    doi_resolver: str = "https://doi.org/"
    geo_require_coordinates: bool = False
    allow_seed_fallback: bool = False
    politeness_delay: float = 1000.0  # ms between requests to one endpoint
    per_host_delay: float = 1000.0  # ms between probe requests to one host

    def __post_init__(self) -> None:
        for f in fields(self):
            setattr(self, f.name, _checked(f.name, getattr(self, f.name)))

    def snapshot(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# each field's annotation: "int", "float", "bool", "str" or "str | None"
_TYPES = {f.name: f.type for f in fields(RunConfig)}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}

# the smallest value each bounded setting may take; timeout must exceed 0
_AT_LEAST = {
    "workers_harvest": 1,
    "workers_probe": 1,
    "politeness_delay": 0.0,
    "per_host_delay": 0.0,
}

# the largest value each of them may take: a socket timeout or a sleep
# longer than threading.TIMEOUT_MAX seconds raises OverflowError
_AT_MOST = {
    "timeout": threading.TIMEOUT_MAX,
    "politeness_delay": threading.TIMEOUT_MAX * 1000.0,  # ms
    "per_host_delay": threading.TIMEOUT_MAX * 1000.0,
}

_URLS = ("registry_url", "doi_resolver")  # each must be an absolute http(s) URL


def is_http_url(url: str) -> bool:
    """Whether ``url`` is an absolute http or https URL."""
    parsed = urlparse(url)
    return parsed.scheme in ("http", "https") and bool(parsed.netloc)


def _convert(key: str, value: Any) -> Any:
    kind = _TYPES[key]
    if isinstance(value, str):
        value = value.strip()
    if kind.endswith(" | None"):
        kind = kind.removesuffix(" | None")
        if value is None or value == "":
            return None
    if value is None:
        raise ValueError("must not be null")
    if kind == "bool":
        if isinstance(value, bool):
            return value
        lowered = str(value).lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise ValueError(f"{value!r} is not a boolean")
    if kind == "str":
        # str() would take any JSON value: ["a"] would name a directory "['a']"
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{value!r} is not text")
        return str(value)
    # int() and float() would take True as 1 and cut 2.5 to 2
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if kind == "int" and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return {"int": int, "float": float}[kind](value)


def _checked(key: str, value: Any) -> Any:
    """``value`` converted to ``key``'s type, after its range check."""
    try:
        value = _convert(key, value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if key == "timeout" and not value > 0:
        raise ConfigError(f"{key}: {value!r} must be greater than 0")
    if key in _AT_LEAST and not value >= _AT_LEAST[key]:
        raise ConfigError(f"{key}: {value!r} must be at least {_AT_LEAST[key]}")
    if key in _AT_MOST and not value <= _AT_MOST[key]:
        raise ConfigError(f"{key}: {value!r} must be at most {_AT_MOST[key]:g}")
    if key in _URLS and value is not None and not is_http_url(value):
        raise ConfigError(f"{key}: {value!r} is not an absolute http(s) URL")
    return value


def apply_settings(config: RunConfig, settings: Mapping[str, Any]) -> RunConfig:
    for key, value in settings.items():
        if key not in _TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(config, key, _checked(key, value))
    return config


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Settings from a JSON object or ``key=value`` lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        return data
    settings: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        settings[key.strip()] = value.strip()
    return settings


def env_settings(environ: Mapping[str, str] | None = None) -> dict[str, str]:
    environ = os.environ if environ is None else environ
    out: dict[str, str] = {}
    for key, value in environ.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower()
        if name in _TYPES:
            out[name] = value
        else:
            logger.warning("ignoring unknown environment override %s", key)
    return out


def build_config(
    config_file: str | Path | None = None,
    cli_settings: Mapping[str, Any] | None = None,
    environ: Mapping[str, str] | None = None,
) -> RunConfig:
    config = RunConfig()
    if config_file:
        apply_settings(config, load_config_file(config_file))
    apply_settings(config, env_settings(environ))
    if cli_settings:
        apply_settings(config, cli_settings)
    return config
