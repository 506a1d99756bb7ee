"""Registry client: XML payloads, the seed grammar, and adoption stats."""

from __future__ import annotations

import dataclasses
import json
import socket

import pytest

from fairprobe import mockrdr
from fairprobe.config import RunConfig
from fairprobe.registry import (
    ApiEndpoint,
    RegistryError,
    RegistryUnreachableError,
    RepositoryDescriptor,
    api_adoption_stats,
    descriptor_from_dict,
    fetch_repository_list,
    filter_by_api,
    load_seed_file,
    normalize_kind,
    parse_repository_detail,
    parse_repository_list,
)

LIST_XML = """
<list xmlns="http://example.org/registry">
  <repository><id>r3d100000001</id><name>First Archive</name></repository>
  <repository><name>No Id Here</name></repository>
  <repository><re3data.orgIdentifier>r3d100000002</re3data.orgIdentifier>
    <name>Second Archive</name></repository>
</list>
"""

DETAIL_XML = """
<repository xmlns="http://example.org/registry">
  <id>r3d100000001</id>
  <repositoryName>First Archive</repositoryName>
  <api apiType="OAI-PMH">http://archive.example/oai</api>
  <api apiType="REST">https://archive.example/api/v1</api>
  <api apiType="FTP">not a url</api>
  <certificate>CoreTrustSeal</certificate>
  <qualityManagement>yes</qualityManagement>
</repository>
"""


def closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def test_parse_repository_list_skips_idless_entries():
    entries = parse_repository_list(LIST_XML)
    assert entries == [
        {"registry_id": "r3d100000001", "name": "First Archive"},
        {"registry_id": "r3d100000002", "name": "Second Archive"},
    ]


def test_parse_repository_list_rejects_non_xml():
    with pytest.raises(RegistryError):
        parse_repository_list("this is not xml <")


def test_parse_repository_detail_drops_invalid_urls():
    detail = parse_repository_detail(DETAIL_XML)
    assert detail["registry_id"] == "r3d100000001"
    assert detail["name"] == "First Archive"
    assert detail["api_endpoints"] == [
        ApiEndpoint(kind="OAI-PMH", url="http://archive.example/oai"),
        ApiEndpoint(kind="REST", url="https://archive.example/api/v1"),
    ]
    assert detail["quality_info"] == ["CoreTrustSeal", "yes"]


def test_seed_file_grammar(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text(
        "\n".join(
            [
                "# registry snapshot",
                "",
                "r1|Alpha Archive|oai-pmh=http://alpha.example/oai;rest=https://alpha.example/api",
                "r2|Beta Vault|",
                "r3|Gamma Shelf",
                "|nameless|oai-pmh=http://x.example/oai",
                "r4|Broken Endpoint|oai-pmh=http://ok.example/oai;rest",
                "r5|Bad Url|oai-pmh=not-a-url",
                "r6|Custom Kind|zarr=http://zarr.example/feed",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    repos = load_seed_file(seed)
    assert [r.registry_id for r in repos] == ["r1", "r2", "r3", "r6"]
    assert repos[0].name == "Alpha Archive"
    assert repos[0].api_endpoints == [
        ApiEndpoint(kind="OAI-PMH", url="http://alpha.example/oai"),
        ApiEndpoint(kind="REST", url="https://alpha.example/api"),
    ]
    assert repos[1].api_endpoints == []
    assert repos[2].api_endpoints == []
    # unknown kinds pass through trimmed, not normalised away
    assert repos[3].api_endpoints == [
        ApiEndpoint(kind="zarr", url="http://zarr.example/feed")
    ]


def test_fetch_from_mock_registry(fixtures_dir, serve_script, sessions):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    repos = fetch_repository_list(
        RunConfig(registry_url=hub.registry_url), session=sessions
    )
    assert [r.registry_id for r in repos] == [
        r.name for r in script.repositories
    ]
    by_name = {r.name: r for r in repos}
    assert all(r.quality_info == ["MockSeal"] for r in repos)
    coastal = by_name["coastal-imagery"]
    assert [ep.kind for ep in coastal.api_endpoints] == ["OAI-PMH"]
    assert coastal.api_endpoints[0].url == hub.oai_endpoint("coastal-imagery")
    assert [ep.kind for ep in by_name["rest-only-archive"].api_endpoints] == ["REST"]


def test_fetch_requires_endpoint_or_seed(sessions):
    with pytest.raises(RegistryUnreachableError):
        fetch_repository_list(RunConfig(), session=sessions)


def test_fetch_uses_seed_when_no_endpoint(tmp_path, sessions):
    seed = tmp_path / "seed.txt"
    seed.write_text("r1|Alpha|oai-pmh=http://alpha.example/oai\n", encoding="utf-8")
    repos = fetch_repository_list(RunConfig(seed_file=str(seed)), session=sessions)
    assert [r.registry_id for r in repos] == ["r1"]


def test_fetch_fallback_needs_permission(tmp_path, sessions):
    seed = tmp_path / "seed.txt"
    seed.write_text("r1|Alpha|\n", encoding="utf-8")
    dead = closed_port_url()
    config = RunConfig(registry_url=dead, seed_file=str(seed), timeout=0.5)
    with pytest.raises(RegistryUnreachableError):
        fetch_repository_list(config, session=sessions)
    config.allow_seed_fallback = True
    repos = fetch_repository_list(config, session=sessions)
    assert [r.registry_id for r in repos] == ["r1"]


def test_filter_by_api_normalises_and_dedups():
    repos = [
        RepositoryDescriptor(
            registry_id="a",
            name="A",
            api_endpoints=[
                ApiEndpoint("OAI-PMH", "http://a.example/oai"),
                ApiEndpoint("OAI-PMH", "http://a.example/oai2"),
            ],
        ),
        RepositoryDescriptor(
            registry_id="b",
            name="B",
            api_endpoints=[ApiEndpoint("REST", "http://b.example/api")],
        ),
        RepositoryDescriptor(
            registry_id="a",
            name="A again",
            api_endpoints=[ApiEndpoint("OAI-PMH", "http://a.example/oai")],
        ),
    ]
    hits = filter_by_api(repos, "oai-pmh")
    assert [r.registry_id for r in hits] == ["a"]
    assert filter_by_api(repos, "REST")[0].registry_id == "b"
    assert filter_by_api(repos, "SPARQL") == []


def test_api_adoption_stats_landscape():
    # A registry snapshot of 2093 entries: four well-known kinds, one
    # long-tail kind, and a majority with no machine interface at all.
    def many(kind: str | None, count: int, start: int) -> list[RepositoryDescriptor]:
        out = []
        for i in range(count):
            endpoints = (
                [ApiEndpoint(kind, f"http://r{start + i}.example/feed")]
                if kind
                else []
            )
            out.append(
                RepositoryDescriptor(
                    registry_id=f"r{start + i}", name=f"R{start + i}",
                    api_endpoints=endpoints,
                )
            )
        return out

    repos = (
        many("REST", 304, 0)
        + many("OAI-PMH", 162, 1000)
        + many("SOAP", 68, 2000)
        + many("SPARQL", 27, 3000)
        + many("zarr", 367, 4000)
        + many(None, 1165, 5000)
    )
    assert len(repos) == 2093
    rows = api_adoption_stats(repos)
    assert rows[-1][0] == "no API"
    shares = {kind: f"{share:.2f}" for kind, _, share in rows}
    counts = {kind: count for kind, count, _ in rows}
    assert counts == {
        "REST": 304, "OAI-PMH": 162, "SOAP": 68, "SPARQL": 27,
        "zarr": 367, "no API": 1165,
    }
    assert shares["REST"] == "14.52"
    assert shares["OAI-PMH"] == "7.74"
    assert shares["SOAP"] == "3.25"
    assert shares["SPARQL"] == "1.29"
    assert shares["no API"] == "55.66"
    assert round(1165 / 2093 * 100) == 56
    # named kinds ordered by count descending, no-API pinned last
    assert [r[0] for r in rows] == ["zarr", "REST", "OAI-PMH", "SOAP", "SPARQL", "no API"]


def test_api_adoption_counts_repo_once_per_kind():
    repos = [
        RepositoryDescriptor(
            registry_id="a",
            name="A",
            api_endpoints=[
                ApiEndpoint("REST", "http://a.example/1"),
                ApiEndpoint("REST", "http://a.example/2"),
                ApiEndpoint("OAI-PMH", "http://a.example/oai"),
            ],
        ),
        RepositoryDescriptor(registry_id="b", name="B"),
    ]
    rows = api_adoption_stats(repos)
    assert ("REST", 1, 50.0) in rows
    assert ("OAI-PMH", 1, 50.0) in rows
    assert rows[-1] == ("no API", 1, 50.0)
    assert api_adoption_stats([]) == []


def test_normalize_kind():
    assert normalize_kind(" oai-pmh ") == "OAI-PMH"
    assert normalize_kind("REST") == "REST"
    assert normalize_kind("Sparql") == "SPARQL"
    assert normalize_kind(" zarr ") == "zarr"


def test_descriptor_round_trip():
    repo = RepositoryDescriptor(
        registry_id="r1",
        name="Alpha",
        api_endpoints=[ApiEndpoint("OAI-PMH", "http://alpha.example/oai")],
        quality_info=["CoreTrustSeal"],
    )
    wire = json.loads(json.dumps(dataclasses.asdict(repo)))
    assert descriptor_from_dict(wire) == repo
