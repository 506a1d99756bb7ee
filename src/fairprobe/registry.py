"""Repository registry client: live HTTP listing or an offline seed file.

The live path speaks a re3data-style XML API (list plus per-entry detail);
the offline path reads a newline-delimited seed. Both map into the same
descriptor type. Malformed entries are skipped with a warning naming the
entry index, never fatally: registry data is known to be inconsistent.
"""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Generator, Sequence

from . import http, throttle
from .config import RunConfig, is_http_url
from .xmltree import attr, local_name

logger = logging.getLogger(__name__)

KNOWN_KINDS = {"oai-pmh": "OAI-PMH", "rest": "REST", "soap": "SOAP", "sparql": "SPARQL"}
NO_API_LABEL = "no API"


class RegistryError(Exception):
    pass


class RegistryUnreachableError(RegistryError):
    """No live registry and no permitted fallback."""


@dataclass(frozen=True)
class ApiEndpoint:
    kind: str
    url: str


@dataclass
class RepositoryDescriptor:
    registry_id: str
    name: str
    api_endpoints: list[ApiEndpoint] = field(default_factory=list)
    quality_info: list[str] = field(default_factory=list)


def normalize_kind(raw: str) -> str:
    return KNOWN_KINDS.get(raw.strip().lower(), raw.strip())


def _find_text(element: ET.Element, name: str) -> str:
    for child in element.iter():
        if local_name(child.tag) == name and child.text:
            return child.text.strip()
    return ""


# --- XML payloads -------------------------------------------------------------

def parse_repository_list(xml_text: str | bytes) -> list[dict[str, str]]:
    """Ids and names from the list payload; malformed entries skipped."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise RegistryError(f"registry list payload is not XML: {exc}") from exc
    entries: list[dict[str, str]] = []
    for index, el in enumerate(
        e for e in root.iter() if local_name(e.tag) == "repository"
    ):
        registry_id = _find_text(el, "id") or _find_text(el, "re3data.orgIdentifier")
        if not registry_id:
            logger.warning("registry list entry %d has no id, skipped", index)
            continue
        entries.append({"registry_id": registry_id, "name": _find_text(el, "name")})
    return entries


QUALITY_TAGS = ("certificate", "qualityManagement", "policyName")


def parse_repository_detail(xml_text: str | bytes) -> dict[str, Any]:
    """Endpoints and quality tags from one detail payload."""
    root = ET.fromstring(xml_text)
    registry_id = _find_text(root, "id") or _find_text(root, "re3data.orgIdentifier")
    name = _find_text(root, "repositoryName") or _find_text(root, "name")
    endpoints: list[ApiEndpoint] = []
    for el in root.iter():
        if local_name(el.tag) != "api":
            continue
        url = (el.text or "").strip()
        kind_raw = attr(el, "apiType") or ""
        if not is_http_url(url):
            logger.warning("dropping api endpoint with invalid url %r", url)
            continue
        endpoints.append(ApiEndpoint(kind=normalize_kind(kind_raw), url=url))
    quality = [
        (el.text or "").strip()
        for el in root.iter()
        if local_name(el.tag) in QUALITY_TAGS and el.text and el.text.strip()
    ]
    return {
        "registry_id": registry_id,
        "name": name,
        "api_endpoints": endpoints,
        "quality_info": quality,
    }


# --- seed file ----------------------------------------------------------------

def load_seed_file(path: str | Path) -> list[RepositoryDescriptor]:
    """Parse the offline seed: one ``registry_id|name|kind=url;...`` per line.

    Blank lines and lines starting with ``#`` are ignored. Endpoints with
    invalid URLs are dropped; lines without an id are skipped with a warning
    naming the line number.
    """
    descriptors: list[RepositoryDescriptor] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 2 or not fields[0].strip():
            logger.warning("seed line %d is malformed, skipped: %r", lineno, line)
            continue
        endpoints: list[ApiEndpoint] = []
        bad = False
        if len(fields) >= 3 and fields[2].strip():
            for part in fields[2].split(";"):
                part = part.strip()
                if not part:
                    continue
                kind, sep, url = part.partition("=")
                if not sep or not is_http_url(url.strip()):
                    logger.warning(
                        "seed line %d has malformed endpoint %r, line skipped",
                        lineno,
                        part,
                    )
                    bad = True
                    break
                endpoints.append(
                    ApiEndpoint(kind=normalize_kind(kind), url=url.strip())
                )
        if bad:
            continue
        descriptors.append(
            RepositoryDescriptor(
                registry_id=fields[0].strip(),
                name=fields[1].strip(),
                api_endpoints=endpoints,
            )
        )
    return descriptors


# --- fetching -----------------------------------------------------------------

def _payload(url: str, reply: http.Reply) -> bytes | str:
    """The XML body of ``url``'s reply; an error status raises RegistryError."""
    if 400 <= reply.status < 600:
        raise RegistryError(f"{url}: HTTP {reply.status}")
    return http.xml_payload(reply)


def fetch_repository_list(
    config: RunConfig, *, session: http.Sessions
) -> list[RepositoryDescriptor]:
    """Candidate repositories from the registry, or from the seed file.

    Every setting comes from ``config``. ``config.registry_url`` is the
    registry API's base URL, as re3data's ``https://www.re3data.org/api/v1``:
    the list is read from ``<base>/repositories`` and each entry's detail
    from ``<base>/repository/<id>``. The network source is preferred. The
    seed, ``config.seed_file``, is read only when no registry is set, or
    when the registry is unreachable and ``config.allow_seed_fallback`` is
    set. Requests wait ``config.timeout`` seconds. The detail fetches are
    scheduled as ``throttle.run_per_host`` jobs, each keyed by its own URL,
    so no host limit applies; ``config.workers_harvest`` is the most of
    them in flight at once.
    """
    seed = config.seed_file
    if not config.registry_url:
        if seed:
            return load_seed_file(seed)
        raise RegistryUnreachableError("no registry endpoint and no seed file")
    base = config.registry_url.rstrip("/")

    try:
        url = base + "/repositories"
        entries = parse_repository_list(
            _payload(url, session.get(url, None, config.timeout))
        )
    except (*http.REQUEST_ERRORS, RegistryError) as exc:
        if seed and config.allow_seed_fallback:
            logger.warning(
                "registry unreachable (%s), falling back to seed file", exc
            )
            return load_seed_file(seed)
        raise RegistryUnreachableError(str(exc)) from exc

    def fetch_detail(
        entry: dict[str, str],
    ) -> Generator[http.Request, http.Answer, dict[str, Any] | None]:
        url = base + "/repository/" + entry["registry_id"]
        reply, error = yield url, None
        try:
            if reply is not None:
                return parse_repository_detail(_payload(url, reply))
        except (RegistryError, ET.ParseError) as exc:
            error = exc
        logger.warning(
            "registry entry %s: detail failed, skipped: %s",
            entry["registry_id"],
            error,
        )
        return None

    details: list[dict[str, Any] | None] = []
    throttle.run_per_host(
        (fetch_detail(entry) for entry in entries),
        send=lambda request: session.ask(request, config.timeout),
        host=http.request_url,
        write=details.append,
        workers=config.workers_harvest,
        min_interval_ms=0.0,
    )

    descriptors: list[RepositoryDescriptor] = []
    for detail, entry in zip(details, entries):
        if detail is None:
            continue
        descriptors.append(
            RepositoryDescriptor(
                registry_id=entry["registry_id"],
                name=detail["name"] or entry["name"],
                api_endpoints=detail["api_endpoints"],
                quality_info=detail["quality_info"],
            )
        )
    return descriptors


def filter_by_api(
    repos: Sequence[RepositoryDescriptor], kind: str
) -> list[RepositoryDescriptor]:
    """Descriptors having at least one endpoint of ``kind``, order kept.

    A repository appears once no matter how many matching endpoints it has.
    """
    wanted = normalize_kind(kind)
    seen: set[str] = set()
    out: list[RepositoryDescriptor] = []
    for repo in repos:
        if repo.registry_id in seen:
            continue
        if any(ep.kind == wanted for ep in repo.api_endpoints):
            seen.add(repo.registry_id)
            out.append(repo)
    return out


def api_adoption_stats(
    repos: Sequence[RepositoryDescriptor],
) -> list[tuple[str, int, float]]:
    """Per-kind adoption: (kind, repositories having it, share as percent).

    A repository with several kinds counts once per kind; the closing
    ``no API`` row counts repositories without any endpoint. Empty input
    yields an empty table.
    """
    if not repos:
        return []
    counts: dict[str, int] = {}
    no_api = 0
    for repo in repos:
        kinds = {ep.kind for ep in repo.api_endpoints}
        if not kinds:
            no_api += 1
        for kind in kinds:
            counts[kind] = counts.get(kind, 0) + 1
    total = len(repos)
    rows = [
        (kind, count, 100.0 * count / total)
        for kind, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    rows.append((NO_API_LABEL, no_api, 100.0 * no_api / total))
    return rows


# --- ndjson -------------------------------------------------------------------

def descriptor_from_dict(data: dict[str, Any]) -> RepositoryDescriptor:
    """The descriptor ``dataclasses.asdict`` wrote as ``data``."""
    endpoints = [ApiEndpoint(**ep) for ep in data["api_endpoints"]]
    return RepositoryDescriptor(**{**data, "api_endpoints": endpoints})
