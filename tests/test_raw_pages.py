"""Step 3 stores ListRecords pages as served and parses each page once.

Most tests drive steps 3 and 4 of a run against scripted OAI replies and
check what ends up in ``parsed``: the records a provider listed, decoded as
the reply says, each identifier once. The expected ``parsed`` lines are the
ones the per-record ``raw`` format (store version 1) gave. A run directory
of another store version is refused, never read.
"""

from __future__ import annotations

import json

import pytest
import requests

from fairprobe import mockrdr, pipeline
from fairprobe.cli import main
from fairprobe.config import RunConfig
from fairprobe.pipeline import PipelineError, PipelineRun
from fairprobe.store import (
    STATUS_COMPLETE,
    STORE_VERSION,
    load_manifest,
    manifest_path,
    save_manifest,
    write_ndjson,
)

KERNEL4 = "http://datacite.org/schema/kernel-4"
NAME = "scripted"


def oai_record(
    identifier: str, doi: str, *, chrono: bool = False, extra: str = ""
) -> str:
    date_type = "Created" if chrono else "Issued"
    return (
        f"<record><header><identifier>{identifier}</identifier>"
        "<datestamp>2016-01-01</datestamp></header>"
        f'<metadata><resource xmlns="{KERNEL4}">'
        f'<identifier identifierType="DOI">{doi}</identifier>'
        '<resourceType resourceTypeGeneral="Image">scan</resourceType>'
        f'<dates><date dateType="{date_type}">2016-05-05</date></dates>'
        f"{extra}</resource></metadata></record>"
    )


def deleted_record(identifier: str) -> str:
    return (
        f'<record><header status="deleted"><identifier>{identifier}</identifier>'
        "<datestamp>2016-01-01</datestamp></header></record>"
    )


def oai_page(*records: str, token: str | None = None, declaration: str = "") -> str:
    token_xml = "" if token is None else f"<resumptionToken>{token}</resumptionToken>"
    return (
        f"{declaration}"
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
        f"<ListRecords>{''.join(records)}{token_xml}</ListRecords></OAI-PMH>"
    )


BAD_TOKEN = (
    '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
    '<error code="badResumptionToken">expired</error></OAI-PMH>'
).encode()


def harvest_and_parse(tmp_path, base: str) -> PipelineRun:
    """Steps 3 and 4 of a run whose one provider is the scripted endpoint."""
    run = PipelineRun(
        RunConfig(
            out=str(tmp_path / "runs"),
            run_id="pages",
            timeout=5.0,
            politeness_delay=0.0,
        )
    )
    provider = {"registry_id": NAME, "endpoint": base, "prefix": "datacite"}
    write_ndjson(run.run_dir / pipeline.PROVIDERS_FILE, [provider])
    for number in (1, 2):
        run.manifest.steps[number].status = STATUS_COMPLETE
    save_manifest(run.manifest, run.run_dir)
    run.run_step(3)
    run.run_step(4)
    return run


def parsed(run: PipelineRun) -> list[tuple[str, str, bool]]:
    return [
        (entry["oai_identifier"], entry["doi"], entry["chrono"])
        for entry in run.store.read("parsed", NAME)
    ]


def raw_ids(run: PipelineRun) -> list[list[str]]:
    return [entry["ids"] for entry in run.store.read("raw", NAME)]


ZURICH = oai_record(
    "oai:x:1",
    "10.1/1",
    extra="<geoLocations><geoLocation><geoLocationPlace>Zürich"
    "</geoLocationPlace></geoLocation></geoLocations>",
)


@pytest.mark.parametrize(
    "content_type, body, stored_bytes",
    [
        # no charset: the declaration decides, not the ISO-8859-1 default of
        # text/* (RFC 7303 section 3.2); the stored body stays bytes
        (
            "text/xml",
            oai_page(
                ZURICH, declaration='<?xml version="1.0" encoding="ISO-8859-1"?>'
            ).encode("iso-8859-1"),
            True,
        ),
        # a charset parameter outranks the declaration (RFC 7303 section 3);
        # the stored body is the decoded text
        (
            "text/xml; charset=ISO-8859-1",
            oai_page(ZURICH).encode("iso-8859-1"),
            False,
        ),
    ],
    ids=["declaration", "charset"],
)
def test_declared_encoding_reaches_parsed(
    scripted_http, tmp_path, content_type, body, stored_bytes
):
    base = scripted_http([(200, {"Content-Type": content_type}, body)])
    run = harvest_and_parse(tmp_path, base)
    assert [line["bytes"] for line in run.store.read("raw", NAME)] == [stored_bytes]
    assert list(run.store.read("parsed", NAME)) == [
        {
            "chrono": False,
            "doi": "10.1/1",
            "geo": True,
            "lic": False,
            "oai_identifier": "oai:x:1",
            "record": {
                "dates": [{"date_type": "Issued", "value": "2016-05-05"}],
                "doi": "10.1/1",
                "formats": [],
                "geo_locations": [{"kind": "place", "text": "Zürich"}],
                "oai_identifier": "oai:x:1",
                "repository": NAME,
                "resource_type_general": "Image",
                "rights": [],
            },
            "repository": NAME,
        }
    ]


def test_protocol_names_inside_a_payload_are_not_records(scripted_http, tmp_path):
    # a payload may hold elements named like the envelope's; only children
    # of ListRecords are records, so step 3 takes exactly the listed ones
    nested = (
        "<descriptions><description descriptionType=\"Other\">"
        "<record><header><identifier>oai:x:nested</identifier></header>"
        f'<metadata><resource xmlns="{KERNEL4}">'
        '<identifier identifierType="DOI">10.1/nested</identifier>'
        "</resource></metadata></record>"
        "<resumptionToken>tok-nested</resumptionToken>"
        "</description></descriptions>"
    )
    base = scripted_http(
        [
            (200, {}, oai_page(
                oai_record("oai:x:1", "10.1/1", extra=nested),
                oai_record("oai:x:2", "10.1/2", chrono=True),
            ).encode()),
        ]
    )
    run = harvest_and_parse(tmp_path, base)
    assert parsed(run) == [
        ("oai:x:1", "10.1/1", False),
        ("oai:x:2", "10.1/2", True),
    ]
    assert run.manifest.steps[4].detail == {
        "parsed": 2, "errors": 0, "not_of_interest": 0, "duplicates": 0,
    }


def test_duplicate_identifiers_within_and_across_pages(scripted_http, tmp_path):
    base = scripted_http(
        [
            (200, {}, oai_page(
                oai_record("oai:x:1", "10.1/1"),
                oai_record("oai:x:1", "10.1/1-again", chrono=True),
                deleted_record("oai:x:2"),
                oai_record("oai:x:3", "10.1/3"),
                token="tok-2",
            ).encode()),
            (200, {}, oai_page(
                oai_record("oai:x:3", "10.1/3-again", chrono=True),
                oai_record("oai:x:2", "10.1/2-revived"),
                token="tok-3",
            ).encode()),
            (200, {}, oai_page(
                oai_record("oai:x:4", "10.1/4", chrono=True), token=""
            ).encode()),
        ]
    )
    run = harvest_and_parse(tmp_path, base)
    # first occurrence wins, a deleted one included; page 2 gave nothing new
    assert parsed(run) == [
        ("oai:x:1", "10.1/1", False),
        ("oai:x:3", "10.1/3", False),
        ("oai:x:4", "10.1/4", True),
    ]
    assert raw_ids(run) == [["oai:x:1", "oai:x:3"], ["oai:x:4"]]
    assert run.manifest.steps[3].detail["repositories"][NAME] == {
        "completed": True, "records": 3, "deleted": 1, "pages": 3,
    }


def test_duplicate_identifiers_after_a_bad_token_restart(scripted_http, tmp_path):
    first = oai_page(
        oai_record("oai:x:1", "10.1/1"),
        oai_record("oai:x:2", "10.1/2"),
        token="tok-2",
    ).encode()
    # the restarted chain serves page 1 again, now with a changed record 2
    # and a new record 5
    again = oai_page(
        oai_record("oai:x:1", "10.1/1"),
        oai_record("oai:x:2", "10.1/2-changed", chrono=True),
        oai_record("oai:x:5", "10.1/5", chrono=True),
        token="tok-2b",
    ).encode()
    last = oai_page(oai_record("oai:x:3", "10.1/3"), token="").encode()
    base = scripted_http(
        [(200, {}, first), (200, {}, BAD_TOKEN), (200, {}, again), (200, {}, last)]
    )
    run = harvest_and_parse(tmp_path, base)
    assert parsed(run) == [
        ("oai:x:1", "10.1/1", False),
        ("oai:x:2", "10.1/2", False),
        ("oai:x:5", "10.1/5", True),
        ("oai:x:3", "10.1/3", False),
    ]
    assert raw_ids(run) == [["oai:x:1", "oai:x:2"], ["oai:x:5"], ["oai:x:3"]]


def test_text_after_a_payload_leaves_the_record_parseable(scripted_http, tmp_path):
    # text between the payload element and </metadata> is not part of the
    # payload; a re-serialized payload carried it along and no longer parsed
    record = oai_record("oai:x:1", "10.1/1").replace(
        "</resource></metadata>", "</resource>stray text</metadata>"
    )
    base = scripted_http([(200, {}, oai_page(record).encode())])
    run = harvest_and_parse(tmp_path, base)
    assert parsed(run) == [("oai:x:1", "10.1/1", False)]
    assert run.manifest.steps[4].detail["errors"] == 0


def test_record_without_identifier_is_skipped_with_one_warning(
    scripted_http, tmp_path, caplog
):
    nameless = oai_record("", "10.1/nameless")
    base = scripted_http(
        [(200, {}, oai_page(nameless, oai_record("oai:x:2", "10.1/2")).encode())]
    )
    run = harvest_and_parse(tmp_path, base)
    assert parsed(run) == [("oai:x:2", "10.1/2", False)]
    assert raw_ids(run) == [["oai:x:2"]]
    # only step 3 reports the skip
    skipped = [
        entry for entry in caplog.records if "without identifier" in entry.getMessage()
    ]
    assert len(skipped) == 1


def test_raw_holds_each_page_as_served(serve_script, make_config):
    repo = mockrdr.MockRepository(
        name="served",
        records=[mockrdr.MockRecord(doi=f"10.28/{i}") for i in range(5)],
        page_size=2,
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    run = PipelineRun(make_config(hub))
    for step in (1, 2, 3):
        run.run_step(step)
    lines = list(run.store.read("raw", "served"))
    assert [line["ids"] for line in lines] == [
        [mockrdr.oai_identifier("served", i) for i in pair]
        for pair in ((0, 1), (2, 3), (4,))
    ]
    # the endpoint is the provider's, kept once in providers.ndjson
    assert all(line.keys() == {"body", "bytes", "ids", "records"} for line in lines)
    # the provider's own bytes (served without a charset), not a rewrite
    # with ns0: prefixes
    served = requests.get(
        hub.oai_endpoint("served"),
        params={"verb": "ListRecords", "metadataPrefix": "datacite"},
        timeout=5,
    ).content
    assert lines[0]["bytes"] is True
    assert lines[0]["body"].encode("utf-8", "surrogateescape") == served


# a version-1 raw line held one record, not a page
RECORD_LINE = (
    '{"datestamp": "2016-01-01", "oai_identifier": "oai:x:1", '
    '"payload": "<resource/>", "source_endpoint": "http://inline/oai"}\n'
)


def older_run(tmp_path) -> RunConfig:
    """A run directory whose manifest says store version 1, part harvested."""
    config = RunConfig(out=str(tmp_path / "runs"), run_id="older")
    run = PipelineRun(config)
    for number in (1, 2):
        run.manifest.steps[number].status = STATUS_COMPLETE
    save_manifest(run.manifest, run.run_dir)
    document = json.loads(manifest_path(run.run_dir).read_text(encoding="utf-8"))
    document["store_version"] = 1
    manifest_path(run.run_dir).write_text(json.dumps(document), encoding="utf-8")
    raw = run.run_dir / "catalogue" / "raw" / "older.ndjson"
    raw.parent.mkdir(parents=True)
    raw.write_text(RECORD_LINE, encoding="utf-8")
    return config


def test_run_directory_of_another_store_version_is_refused(tmp_path):
    config = older_run(tmp_path)
    with pytest.raises(PipelineError) as caught:
        PipelineRun(config)
    message = str(caught.value)
    assert "store version 1" in message
    assert f"store version {STORE_VERSION}" in message
    # the refused directory is left as it was
    run_dir = tmp_path / "runs" / "older"
    assert load_manifest(run_dir).store_version == 1
    raw = run_dir / "catalogue" / "raw" / "older.ndjson"
    assert raw.read_text(encoding="utf-8") == RECORD_LINE


def test_run_all_refuses_another_store_version(tmp_path, capsys):
    older_run(tmp_path)
    config_file = tmp_path / "older.json"
    config_file.write_text(json.dumps({"run_id": "older"}), encoding="utf-8")
    code = main(
        ["run-all", "--config", str(config_file), "--out", str(tmp_path / "runs")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
