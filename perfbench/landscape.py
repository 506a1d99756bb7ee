"""Seeded mock landscapes for the benchmark, served from a process of their own.

A workload is a function of a seed and a scale that returns a
``mockrdr.ScenarioScript``: the same seed and scale always give the same
script. The shape of each workload is fixed; the seed only moves which
records are images, their predicates and retrieval styles, and a small
jitter in the image share, so runs on different seeds do comparable work.

``serve_landscape`` is the entry point of the landscape process. It builds
the script, serves every host of the workload, sends the URLs and then
answers each ``"counts"`` message with the requests received, grouped the
way the politeness gates group them, and the CPU seconds the landscape
spent serving them. It returns when the benchmark closes its input.
"""

from __future__ import annotations

import random
import socketserver
import sys
import time
from collections import Counter
from typing import Any, Callable
from urllib.parse import parse_qs, quote, urlparse

from fairprobe import mockrdr

ALL_STYLES = tuple(sorted(mockrdr.RETRIEVAL_STYLES))
DATACITE_PREFIXES = (("oai_dc", "datacite"), ("datacite4",), ("oai_datacite",))

# Sizes at scale 1. They are the shapes of the workloads scaled down so that
# one pipeline run takes a few seconds on 2 cores, which lets a run of the
# benchmark repeat it several times and report medians.
BULK_REPOSITORIES = 8
BULK_RECORDS = 700
MULTIHOST_REPOSITORIES = 6
MULTIHOST_RECORDS = 120
SMALL_REPOSITORIES = 160
SMALL_RECORDS = 20


def _records(
    rng: random.Random, repository: str, styles: list[str | None]
) -> list[mockrdr.MockRecord]:
    """One record per entry of ``styles``: an image in that retrieval style,
    or a non-image for None. Predicates and payload variants are random."""
    return [
        mockrdr.MockRecord(
            doi=f"10.5072/{repository}-{index}",
            of_interest=style is not None,
            chrono=rng.random() < 0.4,
            geo=rng.random() < 0.4,
            lic=rng.random() < 0.6,
            retrieval=style or "landing",
            kernel=rng.choice((3, 4)),
            geo_style=rng.choice(("point", "box", "place")),
            interest_via=rng.choice(("type", "format", "wildcard")),
            wrapped=rng.random() < 0.25,
        )
        for index, style in enumerate(styles)
    ]


def _place(rng: random.Random, records: int, styles: list[str]) -> list[str | None]:
    """Retrieval style per record: ``styles`` at random places, None elsewhere."""
    placed: list[str | None] = [*styles, *[None] * (records - len(styles))]
    rng.shuffle(placed)
    return placed


def _even_styles(rng: random.Random, images: int) -> list[str]:
    """Image styles spread evenly over all six, so the requests that probes
    make vary little with the seed."""
    styles = [ALL_STYLES[i % len(ALL_STYLES)] for i in range(images)]
    rng.shuffle(styles)
    return styles


def bulk_harvest(rng: random.Random, scale: float) -> mockrdr.ScenarioScript:
    """Few long repositories, 7-8 % images, each resolving in one hop."""
    size = max(1, round(BULK_RECORDS * scale))
    repositories = []
    for index in range(BULK_REPOSITORIES):
        name = f"bulk-{index}"
        images = max(1, round(size * rng.uniform(0.07, 0.08)))
        records = _records(rng, name, _place(rng, size, ["client"] * images))
        repositories.append(
            mockrdr.MockRepository(name=name, records=records, page_size=100)
        )
    return mockrdr.ScenarioScript(repositories=repositories)


def probe_multihost(rng: random.Random, scale: float) -> mockrdr.ScenarioScript:
    """A few repositories of ~90 % images in every retrieval style.

    Each repository's DOIs are redirected by the resolver to a host of the
    repository's own (see ``_split_hosts``).
    """
    size = max(1, round(MULTIHOST_RECORDS * scale))
    repositories = []
    for index in range(MULTIHOST_REPOSITORIES):
        name = f"multi-{index}"
        images = round(size * rng.uniform(0.88, 0.92))
        records = _records(rng, name, _place(rng, size, _even_styles(rng, images)))
        repositories.append(
            mockrdr.MockRepository(name=name, records=records, page_size=50)
        )
    return mockrdr.ScenarioScript(repositories=repositories)


def many_small(rng: random.Random, scale: float) -> mockrdr.ScenarioScript:
    """Many two-page repositories with ~10 % images in every retrieval style.

    A tenth of the repositories are REST-only and a tenth offer only oai_dc.
    """
    count = max(3, round(SMALL_REPOSITORIES * scale))
    kinds = ["rest"] * (count // 10) + ["dc"] * (count // 10)
    kinds += ["datacite"] * (count - len(kinds))
    rng.shuffle(kinds)
    # two images per repository, three in one repository of twenty
    images = [2 + (rng.random() < 0.05) for _ in kinds]
    styles = _even_styles(rng, sum(images))
    repositories = []
    for index, kind in enumerate(kinds):
        name = f"small-{index:04d}"
        mine = [styles.pop() for _ in range(images[index])]
        records = _records(rng, name, _place(rng, SMALL_RECORDS, mine))
        prefixes = rng.choice(DATACITE_PREFIXES)
        apis: tuple[str, ...] = ("OAI-PMH",)
        if kind == "rest":
            apis = ("REST",)
        elif kind == "dc":
            prefixes = ("oai_dc",)
        repositories.append(
            mockrdr.MockRepository(
                name=name, records=records, page_size=10, prefixes=prefixes, apis=apis
            )
        )
    return mockrdr.ScenarioScript(repositories=repositories)


WORKLOADS: dict[str, Callable[[random.Random, float], mockrdr.ScenarioScript]] = {
    "bulk-harvest": bulk_harvest,
    "probe-multihost": probe_multihost,
    "many-small": many_small,
}


def build_script(workload: str, seed: int, scale: float) -> mockrdr.ScenarioScript:
    script = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), scale)
    mockrdr.validate(script)
    return script


def _split_hosts(
    script: mockrdr.ScenarioScript, resolver: mockrdr.MockHandle
) -> list[mockrdr.MockHandle]:
    """Give every repository a host that serves its DOIs' chains.

    The resolver answers each routed DOI with one 302 to the repository's
    host, which serves the rest of the chain and the Link targets, as
    doi.org hands off to the repository. Unrouted DOIs stay on the resolver.
    """
    hosts = []
    for repo in script.repositories:
        host = mockrdr.serve(mockrdr.ScenarioScript())
        host.blobs = resolver.blobs
        for record in repo.records:
            route = resolver.routes.get(record.doi)
            if route is None:
                continue
            host.routes[record.doi] = route
            resolver.routes[record.doi] = [
                mockrdr.RouteHop(
                    302,
                    location=f"{host.base_url}/resolve/{quote(record.doi, safe='/')}",
                )
            ]
        hosts.append(host)
    return hosts


def request_counts(hubs: list[mockrdr.MockHandle]) -> dict[str, Any]:
    """Requests received, and per politeness-gate key for steps 2, 3 and 5.

    Steps 2 and 3 gate on the OAI endpoint; step 2 sends
    ListMetadataFormats and step 3 ListRecords. Step 5 gates on host:port.
    """
    total = 0
    formats: Counter[str] = Counter()
    records: Counter[str] = Counter()
    probes: Counter[str] = Counter()
    for hub in hubs:
        host = urlparse(hub.base_url).netloc
        with hub.log_lock:
            log = list(hub.request_log)
        total += len(log)
        for entry in log:
            if entry.target.startswith("/oai/"):
                verb = parse_qs(urlparse(entry.path).query).get("verb", [""])[0]
                key = host + entry.target
                if verb == "ListMetadataFormats":
                    formats[key] += 1
                elif verb == "ListRecords":
                    records[key] += 1
            elif entry.target.startswith(("/resolve/", "/blob/")):
                probes[host] += 1
    return {
        "requests": total,
        "formats": dict(formats),
        "records": dict(records),
        "probe": dict(probes),
    }


def serve_landscape(conn: Any, workload: str, seed: int, scale: float) -> None:
    """Landscape process: serve the workload until the input ends.

    The servers run on daemon threads, so returning ends the process and
    closes them without waiting for their 0.5 s shutdown poll.
    """
    # mockrdr writes a reply's headers and body separately; with Nagle on,
    # delayed ACKs stall every reused keep-alive connection by ~40 ms.
    socketserver.StreamRequestHandler.disable_nagle_algorithm = True
    script = build_script(workload, seed, scale)
    resolver = mockrdr.serve(script)
    hubs = [resolver]
    if workload == "probe-multihost":
        hubs += _split_hosts(script, resolver)
    conn.send(
        {"registry_url": resolver.registry_url, "resolver_base": resolver.resolver_base}
    )
    serving = time.process_time()
    try:
        while conn.recv() == "counts":
            counts = request_counts(hubs)
            counts["cpu_s"] = time.process_time() - serving
            conn.send(counts)
    except EOFError:
        pass


if __name__ == "__main__":
    from channel import Parent

    serve_landscape(Parent(), sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
