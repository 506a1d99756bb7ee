"""Five-step workflow orchestration with checkpointed, resumable runs.

Steps: (1) registry query, (2) provider selection, (3) catalogue harvest,
(4) selection and assessment, (5) retrieval probing; scoring and report
rendering close the run. Steps hand data to each other only through files
under the run directory, so a killed run resumes from what is on disk.
Every run gets its own directory keyed by run id; nothing is overwritten.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from . import assessor, datacite, http, oaipmh, probe, registry, scoring
from .config import RunConfig
from .report import ApiRow, ScoreReport, write_report
from .store import (
    STATUS_COMPLETE,
    STATUS_PARTIAL,
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
from .throttle import HostGate

logger = logging.getLogger(__name__)

REPOSITORIES_FILE = "repositories.ndjson"
PROVIDERS_FILE = "providers.ndjson"


class PipelineError(Exception):
    pass


class PredecessorIncompleteError(PipelineError):
    """A step was requested before the step it depends on finished."""


class _Chain(NamedTuple):
    """A harvest chain left unfinished by its first page."""

    repo: registry.RepositoryDescriptor
    recovered: int  # records in the catalogue before page 1 was fetched
    first: oaipmh.HarvestSummary
    page_ids: set[str]  # ids new on page 1, deleted ones included


class ConcurrencyMeter:
    """Tracks peak concurrent holders, to prove pool bounds were honoured."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    @contextmanager
    def slot(self):
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1


def new_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:8]


class PipelineRun:
    """One run directory: its manifest, its catalogue, its report."""

    def __init__(self, config: RunConfig):
        self.config = config
        run_id = config.run_id or new_run_id()
        self.run_dir = Path(config.out) / run_id
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if manifest_path(self.run_dir).exists():
            self.manifest = load_manifest(self.run_dir)
        else:
            self.manifest = new_manifest(run_id, config.snapshot())
            save_manifest(self.manifest, self.run_dir)
        self.store = CatalogueStore(self.run_dir)
        self._manifest_lock = threading.Lock()
        self.sessions = http.Sessions()

    # -- manifest bookkeeping ---------------------------------------------

    def _save(self) -> None:
        with self._manifest_lock:
            save_manifest(self.manifest, self.run_dir)

    def _check_predecessor(self, step: int) -> None:
        if step <= 1:
            return
        status = self.manifest.status(step - 1)
        if status == STATUS_COMPLETE:
            return
        if status == STATUS_PARTIAL and self.config.allow_partial:
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
        self._save()
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
            self._save()
            raise
        finally:
            self.sessions.close()
            self.store.close_all()
        state.status = status
        state.detail.update(detail)
        state.finished = now_iso()
        self._save()
        return self.manifest

    # -- the five steps -------------------------------------------------------

    def _harvest_policy(self) -> oaipmh.HarvestPolicy:
        return oaipmh.HarvestPolicy(
            request_timeout=self.config.timeout,
            retries_after_timeout=self.config.retries,
            politeness_delay=self.config.politeness_delay,
            max_pages=self.config.max_pages,
        )

    def _probe_policy(self) -> probe.ProbePolicy:
        return probe.ProbePolicy(
            max_redirects=self.config.max_redirects,
            request_timeout=self.config.timeout,
            max_body_bytes=self.config.max_body_bytes,
            per_host_delay=self.config.per_host_delay,
        )

    def _step1_registry(self) -> tuple[str, dict]:
        repos = registry.fetch_repository_list(
            self.config.registry_url,
            self.config.seed_file,
            allow_seed_fallback=self.config.allow_seed_fallback,
            timeout=self.config.timeout,
            detail_workers=self.config.detail_workers,
            session=self.sessions,
        )
        write_ndjson(
            self.run_dir / REPOSITORIES_FILE,
            [registry.descriptor_to_dict(r) for r in repos],
        )
        return STATUS_COMPLETE, {"repositories": len(repos)}

    def _step2_select_providers(self) -> tuple[str, dict]:
        descriptors = [
            registry.descriptor_from_dict(d)
            for d in read_ndjson(self.run_dir / REPOSITORIES_FILE)
        ]
        candidates = registry.filter_by_api(descriptors, "OAI-PMH")
        policy = self._harvest_policy()
        gate = HostGate(self.config.politeness_delay)
        meter = ConcurrencyMeter()

        def classify(repo: registry.RepositoryDescriptor) -> None:
            endpoint = next(
                ep.url for ep in repo.api_endpoints if ep.kind == "OAI-PMH"
            )
            with meter.slot():
                try:
                    formats = oaipmh.list_metadata_formats(
                        endpoint, policy, gate=gate, session=self.sessions
                    )
                except oaipmh.OaiError as exc:
                    logger.warning("%s: not usable (%s)", repo.registry_id, exc)
                    repo.datacite_support = registry.DataciteSupport(
                        status=registry.SUPPORT_UNSUPPORTED
                    )
                    return
            prefix = oaipmh.select_datacite_prefix(formats)
            if prefix is None:
                repo.datacite_support = registry.DataciteSupport(
                    status=registry.SUPPORT_UNSUPPORTED
                )
            else:
                repo.datacite_support = registry.DataciteSupport(
                    status=registry.SUPPORT_SUPPORTED, prefix=prefix
                )

        if candidates:
            with ThreadPoolExecutor(
                max_workers=max(1, self.config.workers_select)
            ) as pool:
                list(pool.map(classify, candidates))

        write_ndjson(
            self.run_dir / PROVIDERS_FILE,
            [registry.descriptor_to_dict(r) for r in descriptors],
        )
        supported = sum(
            1
            for r in descriptors
            if r.datacite_support.status == registry.SUPPORT_SUPPORTED
        )
        return STATUS_COMPLETE, {
            "candidates": len(candidates),
            "supported": supported,
            "peak_workers": meter.peak,
        }

    def _providers(self) -> list[registry.RepositoryDescriptor]:
        return [
            registry.descriptor_from_dict(d)
            for d in read_ndjson(self.run_dir / PROVIDERS_FILE)
        ]

    def _step3_harvest(self) -> tuple[str, dict]:
        providers = [
            r
            for r in self._providers()
            if r.datacite_support.status == registry.SUPPORT_SUPPORTED
        ]
        state = self.manifest.steps[3]
        done: dict = state.detail.setdefault("repositories", {})
        pending = [
            r
            for r in providers
            if not done.get(r.registry_id, {}).get("completed", False)
        ]
        policy = self._harvest_policy()
        gate = HostGate(self.config.politeness_delay)
        meter = ConcurrencyMeter()
        workers = max(1, self.config.workers_harvest)

        def endpoint_of(repo: registry.RepositoryDescriptor) -> str:
            return next(
                ep.url for ep in repo.api_endpoints if ep.kind == "OAI-PMH"
            )

        def stored_ids(repo: registry.RepositoryDescriptor) -> set[str]:
            return {
                entry["oai_identifier"]
                for entry in self.store.read("raw", repo.registry_id)
            }

        def harvest(
            repo: registry.RepositoryDescriptor,
            seen: set[str],
            *,
            first_page_only: bool = False,
            after: oaipmh.HarvestSummary | None = None,
        ) -> oaipmh.HarvestSummary:
            name = repo.registry_id

            def sink(record: oaipmh.RawRecord) -> None:
                self.store.append(
                    "raw",
                    name,
                    {
                        "oai_identifier": record.oai_identifier,
                        "datestamp": record.datestamp,
                        "payload": record.payload,
                        "source_endpoint": record.source_endpoint,
                    },
                )

            with meter.slot():
                summary = oaipmh.harvest_records(
                    endpoint_of(repo),
                    repo.datacite_support.prefix or "",
                    policy,
                    sink,
                    gate=gate,
                    seen=seen,
                    session=self.sessions,
                    first_page_only=first_page_only,
                    after=after,
                )
                self.store.close("raw", name)
            return summary

        def finish(
            repo: registry.RepositoryDescriptor,
            recovered: int,
            summary: oaipmh.HarvestSummary,
        ) -> None:
            with self._manifest_lock:
                done[repo.registry_id] = {
                    "completed": summary.completed,
                    "records": summary.records + recovered,
                    "deleted": summary.deleted,
                    "pages": summary.pages,
                }
                save_manifest(self.manifest, self.run_dir)

        # pass 1: page 1 of every chain. Its completeListSize is the size
        # estimate; the token and the ids new on page 1 are all that is kept
        def start(repo: registry.RepositoryDescriptor) -> _Chain | None:
            recovered_ids = stored_ids(repo)
            seen = set(recovered_ids)
            first = harvest(repo, seen, first_page_only=True)
            if first.token:
                return _Chain(repo, len(recovered_ids), first, seen - recovered_ids)
            finish(repo, len(recovered_ids), first)
            return None

        # pass 2: the unfinished chains, largest first, on one shared queue.
        # The seen set is rebuilt from the catalogue, so waiting chains hold
        # no more than one page of ids each. A token that expired while its
        # chain waited is rejected, and the chain spends its one restart to
        # start again at page 1.
        def resume(chain: _Chain) -> None:
            seen = stored_ids(chain.repo) | chain.page_ids
            rest = harvest(chain.repo, seen, after=chain.first)
            finish(chain.repo, chain.recovered, chain.first + rest)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            unfinished = [chain for chain in pool.map(start, pending) if chain]
            unfinished.sort(
                key=lambda chain: (
                    -(chain.first.complete_list_size or 0),
                    chain.repo.registry_id,
                )
            )
            list(pool.map(resume, unfinished))
        incomplete = [
            name
            for name, info in done.items()
            if not info.get("completed", False)
        ]
        status = STATUS_PARTIAL if incomplete else STATUS_COMPLETE
        if incomplete:
            logger.warning(
                "harvest incomplete for %d repositories: %s",
                len(incomplete),
                ", ".join(sorted(incomplete)),
            )
        return status, {
            "providers": len(providers),
            "incomplete": sorted(incomplete),
            "peak_workers": meter.peak,
        }

    def _step4_assess(self) -> tuple[str, dict]:
        partitions = self.store.partitions("raw")
        meter = ConcurrencyMeter()
        counts_lock = threading.Lock()
        counts = {"parsed": 0, "errors": 0, "not_of_interest": 0, "duplicates": 0}
        assess_config = assessor.AssessorConfig(
            geo_require_coordinates=self.config.geo_require_coordinates
        )

        def assess_partition(name: str) -> None:
            with meter.slot():
                seen_dois = {
                    entry["doi"] for entry in self.store.read("parsed", name)
                }
                local = {"parsed": 0, "errors": 0, "not_of_interest": 0,
                         "duplicates": 0}
                for entry in self.store.read("raw", name):
                    try:
                        record = datacite.parse_record(
                            entry["payload"],
                            repository=name,
                            oai_identifier=entry["oai_identifier"],
                        )
                    except datacite.RecordParseError as exc:
                        logger.warning(
                            "%s %s: %s", name, entry["oai_identifier"], exc
                        )
                        local["errors"] += 1
                        continue
                    if not datacite.is_of_interest(record):
                        local["not_of_interest"] += 1
                        continue
                    if record.doi in seen_dois:
                        local["duplicates"] += 1
                        continue
                    seen_dois.add(record.doi)
                    result = assessor.assess(record, assess_config)
                    self.store.append(
                        "parsed",
                        name,
                        {
                            "doi": record.doi,
                            "repository": name,
                            "oai_identifier": entry["oai_identifier"],
                            "record": datacite.record_to_dict(record),
                            "chrono": result.chrono,
                            "geo": result.geo,
                            "lic": result.lic,
                        },
                    )
                    local["parsed"] += 1
                self.store.close("parsed", name)
                with counts_lock:
                    for key, value in local.items():
                        counts[key] += value

        if partitions:
            with ThreadPoolExecutor(
                max_workers=max(1, self.config.workers_select)
            ) as pool:
                list(pool.map(assess_partition, partitions))
        counts["peak_workers"] = meter.peak
        return STATUS_COMPLETE, counts

    def _step5_probe(self) -> tuple[str, dict]:
        partitions = self.store.partitions("parsed")
        policy = self._probe_policy()
        gate = HostGate(self.config.per_host_delay)
        meter = ConcurrencyMeter()
        stats_lock = threading.Lock()
        stats = {"probed": 0, "retrievable": 0}

        def probe_entry(name: str, entry: dict) -> None:
            with meter.slot():
                record = datacite.record_from_dict(entry["record"])
                retrievable, trace = probe.f_ret(
                    record,
                    policy,
                    resolver_base=self.config.doi_resolver,
                    gate=gate,
                    session=self.sessions,
                )
                result = assessor.AssessmentResult(
                    doi=entry["doi"],
                    repository=name,
                    chrono=bool(entry["chrono"]),
                    geo=bool(entry["geo"]),
                    lic=bool(entry["lic"]),
                    ret=retrievable,
                    probe_trace=probe.trace_to_dict(trace),
                )
                self.store.append(
                    "assessed", name, assessor.assessment_to_dict(result)
                )
                with stats_lock:
                    stats["probed"] += 1
                    if retrievable:
                        stats["retrievable"] += 1
                    unprobed[name] -= 1
                    finished = unprobed[name] == 0
                if finished:
                    self.store.close("assessed", name)

        jobs: list[tuple[str, dict]] = []
        for name in partitions:
            already = {
                entry["doi"] for entry in self.store.read("assessed", name)
            }
            for entry in self.store.read("parsed", name):
                if entry["doi"] not in already:
                    jobs.append((name, entry))
        # a partition's handle closes when its last probe job finishes
        unprobed = Counter(name for name, _ in jobs)

        if jobs:
            with ThreadPoolExecutor(
                max_workers=max(1, self.config.workers_probe)
            ) as pool:
                futures = [
                    pool.submit(probe_entry, name, entry) for name, entry in jobs
                ]
                for future in futures:
                    future.result()
        stats["peak_workers"] = meter.peak
        return STATUS_COMPLETE, stats

    # -- scoring and reporting --------------------------------------------------

    def build_report(self) -> ScoreReport:
        q_sizes = {name: 0 for name in scoring.CRITERIA}
        d_size = 0
        per_repo: dict[str, dict[str, int]] = {}
        for name in self.store.partitions("assessed"):
            met = {key: 0 for key in scoring.CRITERIA}
            items = 0
            for entry in self.store.read("assessed", name):
                items += 1
                d_size += 1
                for key in scoring.CRITERIA:
                    if entry[key]:
                        met[key] += 1
                        q_sizes[key] += 1
            if items:
                per_repo[name] = {"items": items, **met}

        warnings: list[str] = []
        incomplete = self.manifest.steps[3].detail.get("incomplete", [])
        if self.manifest.steps[3].status == STATUS_PARTIAL or incomplete:
            names = ", ".join(incomplete) if incomplete else "unknown repositories"
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


def run_step(step: int, manifest: RunManifest, config: RunConfig) -> RunManifest:
    """Execute one workflow step against an existing run."""
    bound = RunConfig(**{**config.snapshot(), "run_id": manifest.run_id})
    return PipelineRun(bound).run_step(step)


def run_all(config: RunConfig) -> Path:
    """Execute every step that still needs work, then score and report.

    Returns the run directory containing catalogue, manifest and report.
    """
    run = PipelineRun(config)
    for step in (1, 2, 3, 4, 5):
        if run.manifest.status(step) != STATUS_COMPLETE:
            run.run_step(step)
    return run.finalize()
