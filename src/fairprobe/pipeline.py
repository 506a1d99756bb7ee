"""Five-step workflow orchestration with checkpointed, resumable runs.

Steps: (1) registry query, (2) provider selection, (3) catalogue harvest,
(4) selection and assessment, (5) retrieval probing; scoring and report
rendering close the run. Steps hand data to each other only through files
under the run directory, so a killed run resumes from what is on disk.
Every run gets its own directory keyed by run id; nothing is overwritten.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import uuid
from pathlib import Path
from typing import Callable, Generator, Iterator, NamedTuple

from . import assessor, datacite, http, oaipmh, probe, registry, scoring, throttle
from .config import RunConfig
from .report import ApiRow, ScoreReport, write_report
from .store import (
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STORE_VERSION,
    CatalogueStore,
    RunManifest,
    load_manifest,
    manifest_path,
    new_manifest,
    now_iso,
    read_ndjson,
    save_manifest,
    write_ndjson,
)

logger = logging.getLogger(__name__)

REPOSITORIES_FILE = "repositories.ndjson"
PROVIDERS_FILE = "providers.ndjson"

# the settings of how a run goes: a resumed run may change these, and must
# keep every other setting it started with. ``timeout`` is not one of them:
# a probe that runs out of it is stored as not retrievable
OPERATIONAL_SETTINGS = frozenset({
    "out", "run_id", "politeness_delay", "per_host_delay",
    "workers_harvest", "workers_probe",
})


class PipelineError(Exception):
    pass


class PredecessorIncompleteError(PipelineError):
    """A step was requested before the step it depends on finished."""


class _Chain(NamedTuple):
    """A harvest chain left unfinished by its first page."""

    provider: dict  # its providers.ndjson line
    first: oaipmh.HarvestSummary
    page_ids: set[str]  # ids on page 1, deleted ones included


def new_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:8]


def _record_outcome(repository: str, record: oaipmh.RawRecord) -> dict | None:
    """What step 4 needs of a taken record: None when it is not an image,
    ``{"error": text}`` when its payload is not a usable Datacite record,
    else the parsed image record as ``datacite.record_to_dict`` gives it."""
    try:
        parsed = datacite.parse_record(
            record.payload,
            repository=repository,
            oai_identifier=record.oai_identifier,
            images_only=True,
        )
    except datacite.RecordParseError as exc:
        return {"error": str(exc)}
    return None if parsed is None else datacite.record_to_dict(parsed)


def _page_line(
    repository: str,
    body: bytes | str,
    records: list[oaipmh.RawRecord],
) -> dict:
    """A ``raw`` line: one ListRecords page as served, the ids taken from it
    and, aligned with them, each taken record's ``_record_outcome``.

    A body served as bytes is kept as its UTF-8 reading with surrogates for
    the bytes that are not UTF-8, which JSON carries losslessly; encoding
    it back with surrogates restores the bytes, so their XML declaration
    sets the encoding again. A body the reply's charset decoded is kept as
    text.
    """
    served_bytes = isinstance(body, bytes)
    return {
        "body": body.decode("utf-8", "surrogateescape") if served_bytes else body,
        "bytes": served_bytes,
        "ids": [record.oai_identifier for record in records],
        "records": [_record_outcome(repository, record) for record in records],
    }


class PipelineRun:
    """One run directory: its manifest, its catalogue, its report."""

    def __init__(self, config: RunConfig):
        self.config = config
        run_id = config.run_id or new_run_id()
        self.run_dir = Path(config.out) / run_id
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if manifest_path(self.run_dir).exists():
            self.manifest = load_manifest(self.run_dir)
            if self.manifest.store_version != STORE_VERSION:
                raise PipelineError(
                    f"{self.run_dir} has store version "
                    f"{self.manifest.store_version}; this fairprobe reads "
                    f"only store version {STORE_VERSION}"
                )
            started_with = self.manifest.config_snapshot
            for key, value in config.snapshot().items():
                was = started_with.get(key)
                if key not in OPERATIONAL_SETTINGS and was != value:
                    raise PipelineError(
                        f"{self.run_dir} was started with {key}={was!r}, not "
                        f"{value!r}; resume it with the settings it started "
                        "with, or start a new run"
                    )
        else:
            self.manifest = new_manifest(run_id, config.snapshot())
            save_manifest(self.manifest, self.run_dir)
        self.store = CatalogueStore(self.run_dir)
        self.sessions = http.Sessions()
        # when each OAI endpoint's next request may start: one spacing
        # record for steps 2 and 3, so that a step or pass that begins
        # waits out the delay of the one before it
        self.endpoint_due: dict[str, float] = {}

    # -- manifest bookkeeping ---------------------------------------------
    # The manifest is saved only here, from the calling thread, when a step
    # starts and when it ends; progress within a step is in the catalogue.

    def _check_predecessor(self, step: int) -> None:
        if step <= 1:
            return
        status = self.manifest.status(step - 1)
        if status == STATUS_COMPLETE:
            return
        if status == STATUS_PARTIAL:
            logger.warning(
                "step %d starts on a partial step %d; results will reflect "
                "the incomplete predecessor",
                step,
                step - 1,
            )
            return
        raise PredecessorIncompleteError(
            f"step {step - 1} is {status}; step {step} cannot start"
        )

    def run_step(self, step: int) -> RunManifest:
        if step not in (1, 2, 3, 4, 5):
            raise PipelineError(f"no such step: {step}")
        self._check_predecessor(step)
        state = self.manifest.steps[step]
        state.started = now_iso()
        save_manifest(self.manifest, self.run_dir)
        runner = {
            1: self._step1_registry,
            2: self._step2_select_providers,
            3: self._step3_harvest,
            4: self._step4_assess,
            5: self._step5_probe,
        }[step]
        try:
            status, detail = runner()
        except Exception:
            # steps 3-5 persist as they go; what is on disk stays usable
            if step >= 3:
                state.status = STATUS_PARTIAL
            state.finished = now_iso()
            save_manifest(self.manifest, self.run_dir)
            raise
        finally:
            self.sessions.close()
            self.store.close_all()
        state.status = status
        state.detail.update(detail)
        state.finished = now_iso()
        save_manifest(self.manifest, self.run_dir)
        return self.manifest

    # -- the five steps -------------------------------------------------------

    def _step1_registry(self) -> tuple[str, dict]:
        repos = registry.fetch_repository_list(self.config, session=self.sessions)
        write_ndjson(
            self.run_dir / REPOSITORIES_FILE,
            [dataclasses.asdict(r) for r in repos],
        )
        return STATUS_COMPLETE, {"repositories": len(repos)}

    def _send_oai(
        self,
        jobs: Iterator[Generator[http.Request | throttle.NotBefore, http.Answer, object]],
        write: Callable[[object], None],
    ) -> None:
        """Run OAI jobs (``oaipmh.formats``, ``oaipmh.walk_records``) through
        the per-endpoint scheduler, their results to ``write`` in order: one
        request in flight per endpoint, their starts ``politeness_delay``
        apart across steps 2 and 3, and at most ``workers_harvest`` requests
        in flight, all on the step's own thread."""
        throttle.run_per_host(
            jobs,
            send=lambda request: self.sessions.ask(request, self.config.timeout),
            host=http.request_url,
            write=write,
            workers=self.config.workers_harvest,
            min_interval_ms=self.config.politeness_delay,
            due=self.endpoint_due,
        )

    def _step2_select_providers(self) -> tuple[str, dict]:
        descriptors = [
            registry.descriptor_from_dict(d)
            for d in read_ndjson(self.run_dir / REPOSITORIES_FILE)
        ]
        candidates = registry.filter_by_api(descriptors, "OAI-PMH")

        def select(repo: registry.RepositoryDescriptor):
            """The providers line of a candidate that serves Datacite, or the
            error that kept its formats from being listed."""
            endpoint = next(
                ep.url for ep in repo.api_endpoints if ep.kind == "OAI-PMH"
            )
            try:
                prefixes = yield from oaipmh.formats(endpoint, self.config)
            except oaipmh.OaiError as exc:
                logger.warning("%s: not usable (%s)", repo.registry_id, exc)
                return exc
            prefix = oaipmh.select_datacite_prefix(prefixes)
            if prefix is None:
                return None
            return {
                "registry_id": repo.registry_id,
                "endpoint": endpoint,
                "prefix": prefix,
            }

        lines: list[dict | oaipmh.OaiError | None] = []
        self._send_oai((select(repo) for repo in candidates), lines.append)
        providers: list[dict] = []
        unusable: list[str] = []
        for repo, line in zip(candidates, lines):
            if isinstance(line, oaipmh.OaiError):
                unusable.append(repo.registry_id)
            elif line:
                providers.append(line)
        write_ndjson(self.run_dir / PROVIDERS_FILE, providers)
        return STATUS_COMPLETE, {
            "candidates": len(candidates),
            "supported": len(providers),
            # an outage here leaves a repository out of every later step
            "unusable": sorted(unusable),
        }

    def _providers(self) -> list[dict]:
        """Step 2's providers.ndjson lines: registry_id, endpoint, prefix."""
        return read_ndjson(self.run_dir / PROVIDERS_FILE)

    def _harvest_outcomes(self) -> dict[str, dict]:
        """Each repository's last ``harvested`` line, less its repository
        field: the outcome of its latest harvest, read in one pass."""
        outcomes: dict[str, dict] = {}
        for outcome in self.store.read("harvested", None):
            outcomes[outcome.pop("repository")] = outcome
        return outcomes

    def unfinished_repositories(
        self, outcomes: dict[str, dict] | None = None
    ) -> list[str]:
        """Providers whose harvest has not completed, sorted.

        A repository is finished when its last ``harvested`` line says so;
        the catalogue holds that even when step 3 stopped before it could
        write its detail. ``outcomes`` is ``_harvest_outcomes()``, read
        here when not given.
        """
        if outcomes is None:
            outcomes = self._harvest_outcomes()
        return sorted(
            p["registry_id"]
            for p in self._providers()
            if not outcomes.get(p["registry_id"], {}).get("completed", False)
        )

    def _step3_harvest(self) -> tuple[str, dict]:
        providers = self._providers()
        to_harvest = set(self.unfinished_repositories())
        pending = [p for p in providers if p["registry_id"] in to_harvest]

        def harvest(
            provider: dict,
            seen: set[str],
            *,
            first_page_only: bool = False,
            token: str | None = None,
        ):
            name = provider["registry_id"]

            # one page is one line, so a crash loses at most the page being
            # written, and a resumed step fetches it again
            def sink(body: bytes | str, records: list[oaipmh.RawRecord]) -> None:
                if records:
                    self.store.append("raw", name, _page_line(name, body, records))

            summary = yield from oaipmh.walk_records(
                provider["endpoint"],
                provider["prefix"],
                self.config,
                sink,
                seen=seen,
                first_page_only=first_page_only,
                token=token,
            )
            self.store.close("raw", name)
            return summary

        def finish(provider: dict, summary: oaipmh.HarvestSummary) -> None:
            outcome = {
                "completed": summary.completed,
                "records": summary.records,
                "deleted": summary.deleted,
                "pages": summary.pages,
            }
            self.store.append("harvested", provider["registry_id"], outcome)

        # pass 1: page 1 of every chain, after the pages an earlier attempt
        # left are deleted: a resumption token is not kept, so an unfinished
        # chain starts again at page 1 anyway. Page 1's completeListSize is
        # the size estimate; its token and ids are all that is kept
        def start(provider: dict):
            self.store.discard("raw", provider["registry_id"])
            seen: set[str] = set()
            first = yield from harvest(provider, seen, first_page_only=True)
            if first.token:
                return _Chain(provider, first, seen)
            finish(provider, first)
            return None

        # pass 2: the unfinished chains, largest first. The scheduler takes
        # a chain when its window has room for one, and a chain continues
        # with the cookies its first page set: the step's requests share
        # one jar. A waiting chain holds one page of ids. A token that
        # expired while its chain waited is rejected, and the chain spends
        # its one restart to start again at page 1.
        def resume(chain: _Chain):
            rest = yield from harvest(
                chain.provider, chain.page_ids, token=chain.first.token
            )
            finish(chain.provider, chain.first + rest)

        chains: list[_Chain | None] = []
        self._send_oai((start(provider) for provider in pending), chains.append)
        unfinished = sorted(
            (chain for chain in chains if chain),
            key=lambda chain: (
                -(chain.first.complete_list_size or 0),
                chain.provider["registry_id"],
            ),
        )
        self._send_oai((resume(chain) for chain in unfinished), lambda _: None)
        outcomes = self._harvest_outcomes()
        incomplete = self.unfinished_repositories(outcomes)
        status = STATUS_PARTIAL if incomplete else STATUS_COMPLETE
        if incomplete:
            logger.warning(
                "harvest incomplete for %d repositories: %s",
                len(incomplete),
                ", ".join(incomplete),
            )
        return status, {
            "providers": len(providers),
            "incomplete": incomplete,
            # a repository's outcome is its last harvested line, so earlier
            # attempts count as in a clean step
            "repositories": outcomes,
        }

    def _step4_assess(self) -> tuple[str, dict]:
        counts = {"parsed": 0, "errors": 0, "not_of_interest": 0, "duplicates": 0}
        # a resumed step writes the ledger again from the start, so it holds
        # and counts what a clean step's does
        self.store.discard("parsed", None)
        for name in self.store.partitions("raw"):
            # a repository is scored on what it serves: a DOI that two
            # repositories serve counts in each
            seen_dois: set[str] = set()
            # the parse outcomes step 3 stored; no XML is parsed again
            outcomes = (
                pair
                for line in self.store.read("raw", name)
                for pair in zip(line["ids"], line["records"])
            )
            for identifier, outcome in outcomes:
                if outcome is None:
                    counts["not_of_interest"] += 1
                    continue
                if "error" in outcome:
                    logger.warning("%s %s: %s", name, identifier, outcome["error"])
                    counts["errors"] += 1
                    continue
                doi = outcome["doi"]
                if doi in seen_dois:
                    counts["duplicates"] += 1
                    continue
                seen_dois.add(doi)
                counts["parsed"] += 1
                # the one part of step 4 that depends on the run's settings
                result = assessor.assess(
                    datacite.record_from_dict(outcome),
                    require_coordinates=self.config.geo_require_coordinates,
                )
                self.store.append(
                    "parsed",
                    name,
                    {
                        "doi": doi,
                        "repository": name,
                        "oai_identifier": identifier,
                        "record": outcome,
                        "chrono": result.chrono,
                        "geo": result.geo,
                        "lic": result.lic,
                    },
                )
        return STATUS_COMPLETE, counts

    def _step5_probe(self) -> tuple[str, dict]:
        def probing(entry: dict):
            """One parsed record's probe, as hops; returns its assessed line."""
            record = datacite.record_from_dict(entry["record"])
            retrievable, trace = yield from probe.hops(record, self.config)
            result = assessor.AssessmentResult(
                doi=entry["doi"],
                repository=entry["repository"],
                chrono=bool(entry["chrono"]),
                geo=bool(entry["geo"]),
                lic=bool(entry["lic"]),
                ret=retrievable,
                probe_trace=probe.trace_to_dict(trace),
            )
            return entry["repository"], assessor.assessment_to_dict(result)

        already = {
            (entry["repository"], entry["doi"])
            for entry in self.store.read("assessed", None)
        }
        parsed = self.store.read("parsed", None)
        # probes are taken from the ledger as hosts free up, and their
        # lines appended in parsed order; a failed probe stops the step
        try:
            throttle.run_per_host(
                (
                    probing(entry)
                    for entry in parsed
                    if (entry["repository"], entry["doi"]) not in already
                ),
                send=lambda hop: probe.ask(self.sessions, hop, self.config.timeout),
                host=probe.hop_host,
                write=lambda line: self.store.append("assessed", *line),
                workers=self.config.workers_probe,
                min_interval_ms=self.config.per_host_delay,
            )
        finally:
            parsed.close()
        # counted from the ledger, so a resumed step counts what earlier
        # attempts probed exactly as a clean step does
        probed = retrievable = 0
        for entry in self.store.read("assessed", None):
            probed += 1
            retrievable += bool(entry["ret"])
        return STATUS_COMPLETE, {"probed": probed, "retrievable": retrievable}

    # -- scoring and reporting --------------------------------------------------

    def build_report(self) -> ScoreReport:
        q_sizes = {name: 0 for name in scoring.CRITERIA}
        d_size = 0
        per_repo: dict[str, dict[str, int]] = {}
        # counted as the ledger streams: no assessed line is kept
        for entry in self.store.read("assessed", None):
            counts = per_repo.get(entry["repository"])
            if counts is None:
                counts = per_repo[entry["repository"]] = dict.fromkeys(
                    ("items", *scoring.CRITERIA), 0
                )
            counts["items"] += 1
            d_size += 1
            for key in scoring.CRITERIA:
                if entry[key]:
                    counts[key] += 1
                    q_sizes[key] += 1

        warnings: list[str] = []
        unusable = self.manifest.steps[2].detail.get("unusable")
        if unusable:
            warnings.append(
                "provider selection incomplete: repositories whose metadata "
                "formats could not be listed are not scored (affected: "
                f"{', '.join(unusable)})"
            )
        if self.manifest.steps[3].status == STATUS_PARTIAL:
            names = ", ".join(self.unfinished_repositories()) or "unknown repositories"
            warnings.append(
                "harvest incomplete: scores are computed over a truncated "
                f"corpus (affected: {names})"
            )

        report = ScoreReport(
            run_id=self.manifest.run_id,
            executed=self.manifest.created[:10],
            d_size=d_size,
            warnings=warnings,
        )

        if d_size == 0:
            report.summary = (
                "no records of interest were found; score tables are empty"
            )
        else:
            stats = scoring.stats_from_counts(q_sizes, d_size)
            report.criteria = stats
            report.total_rareness = scoring.total_rareness(stats)
            for name, counts in sorted(per_repo.items()):
                items = counts.pop("items")
                report.repositories.append(
                    scoring.repository_score_from_counts(name, items, counts, stats)
                )
            report.summary = (
                f"{d_size} records of interest across "
                f"{len(report.repositories)} repositories"
            )

        repositories_file = self.run_dir / REPOSITORIES_FILE
        if repositories_file.exists():
            descriptors = [
                registry.descriptor_from_dict(d)
                for d in read_ndjson(repositories_file)
            ]
            report.apis = [
                ApiRow(kind=kind, count=count, share_percent=share)
                for kind, count, share in registry.api_adoption_stats(descriptors)
            ]
        return report

    def finalize(self) -> Path:
        report = self.build_report()
        for warning in report.warnings:
            logger.warning("%s", warning)
        write_report(report, self.run_dir.parent)
        return self.run_dir


def run_all(config: RunConfig) -> Path:
    """Execute every step that still needs work, then score and report.

    Returns the run directory containing catalogue, manifest and report.
    """
    run = PipelineRun(config)
    for step in (1, 2, 3, 4, 5):
        if run.manifest.status(step) != STATUS_COMPLETE:
            run.run_step(step)
    return run.finalize()
