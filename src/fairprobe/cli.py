"""Command-line entry points.

``fairprobe registry`` fetches the candidate repository list on its own;
``fairprobe run-all`` executes the whole workflow; ``fairprobe step N``
runs one step against the newest run (or the run named in the config).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import http, pipeline, registry
from .config import ConfigError, RunConfig, build_config
from .store import StoreError, load_manifest, manifest_path, write_ndjson

logger = logging.getLogger(__name__)


# every setting's built-in value, for the help texts
_DEFAULTS = RunConfig()


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="configuration file")
    parser.add_argument("--out", metavar="DIR", help="output directory for runs")
    parser.add_argument("--workers-harvest", type=int, metavar="N",
                        help="most requests in flight at once in steps 1-3 "
                        f"(default {_DEFAULTS.workers_harvest})")
    parser.add_argument("--workers-probe", type=int, metavar="N",
                        help="most probe requests in flight at once "
                        f"(default {_DEFAULTS.workers_probe})")
    parser.add_argument("--timeout", type=float, metavar="SECONDS",
                        help=f"HTTP request timeout (default {_DEFAULTS.timeout:g})")
    parser.add_argument("--doi-resolver", metavar="URL",
                        help=f"DOI resolver base (default {_DEFAULTS.doi_resolver})")
    parser.add_argument("--geo-require-coordinates", action="store_true",
                        default=None,
                        help="only coordinate locations satisfy the geo criterion")
    parser.add_argument("--allow-seed-fallback", action="store_true",
                        default=None,
                        help="use the seed file when the registry is unreachable")


def _cli_settings(args: argparse.Namespace) -> dict:
    """The flags that were given and name a ``RunConfig`` field."""
    names = {f.name for f in fields(RunConfig)}
    return {
        key: value
        for key, value in vars(args).items()
        if key in names and value is not None
    }


def _resolve_run_id(config: RunConfig, create: bool) -> str:
    """The run to operate on: configured, else newest on disk, else new.
    The newest run's manifest was created last; a tie goes to the last name."""
    if config.run_id:
        return config.run_id
    out = Path(config.out)
    if out.is_dir():
        runs = sorted(
            (load_manifest(entry).created, entry.name)
            for entry in out.iterdir()
            if entry.is_dir() and manifest_path(entry).exists()
        )
        if runs:
            return runs[-1][1]
    if create:
        return pipeline.new_run_id()
    raise pipeline.PipelineError(
        f"no existing run under {out}; run step 1 or run-all first"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairprobe",
        description="Harvest image metadata from research data repositories "
        "and score how well it supports automated retrieval.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    registry_cmd = commands.add_parser(
        "registry", help="fetch the candidate repository list"
    )
    registry_cmd.add_argument("--registry-url", metavar="U",
                              help="registry API base URL")
    registry_cmd.add_argument("--seed-file", metavar="F",
                              help="offline seed file (registry_id|name|kind=url;...)")
    # not the run setting "out": the file this command writes
    registry_cmd.add_argument("--out", dest="target", metavar="FILE",
                              default="repos.ndjson",
                              help="where to write the descriptor list")
    registry_cmd.add_argument("--timeout", type=float, metavar="SECONDS",
                              help="HTTP request timeout "
                              f"(default {_DEFAULTS.timeout:g})")

    run_all_cmd = commands.add_parser(
        "run-all", help="execute the whole workflow and render the report"
    )
    _add_run_flags(run_all_cmd)

    step_cmd = commands.add_parser("step", help="execute one workflow step")
    step_cmd.add_argument("number", type=int, choices=(1, 2, 3, 4, 5),
                          metavar="N", help="step number (1-5)")
    _add_run_flags(step_cmd)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )

    try:
        if args.command == "registry":
            config = build_config(cli_settings=_cli_settings(args))
            # a seed file given here is also the fallback source
            config.allow_seed_fallback |= bool(args.seed_file)
            sessions = http.Sessions()
            try:
                repos = registry.fetch_repository_list(config, session=sessions)
            finally:
                sessions.close()
            write_ndjson(args.target, [asdict(r) for r in repos])
            print(f"{len(repos)} repositories -> {args.target}")
            return 0

        config = build_config(args.config, _cli_settings(args))
        if args.command == "run-all":
            # a named run resumes; otherwise every invocation is a new run
            config.run_id = config.run_id or pipeline.new_run_id()
            run_dir = pipeline.run_all(config)
            print(f"run complete: {run_dir}")
            return 0

        config.run_id = _resolve_run_id(config, create=args.number == 1)
        run = pipeline.PipelineRun(config)
        run.run_step(args.number)
        if args.number == 5:
            run.finalize()  # stepping ends with the same report run-all writes
        status = run.manifest.status(args.number)
        print(f"step {args.number} {status}: {run.run_dir}")
        return 0
    except (
        ConfigError, pipeline.PipelineError, registry.RegistryError, StoreError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
