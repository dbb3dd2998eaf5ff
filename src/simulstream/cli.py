"""Command-line surface: simulate, eval, datagen, bench.

Exit status is 0 on success, 1 on a validation error, and 2 on a backend
or protocol error; failures print one machine-readable JSON object on
stderr so callers never have to scrape tracebacks.

Each handler imports the layers it runs, so a command loads nothing it
does not execute: ``simulate`` never loads the scorer, ``eval`` never
loads the pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .core import (
    BackendError,
    InvalidArgumentError,
    ProtocolError,
    json_field,
    json_report,
    must_be,
    read_json_file,
    report_error,
    write_emission_log,
)

_TABLE_HEADERS = ("M", "mdn", "p90", "p95", "p99", "max")


# The keys of the config's ``backend`` object, by kind; any other is refused.
_BACKEND_KEYS = {"mock": ("kind",), "wire": ("kind", "command", "timeout_s")}


def _build_backends(config: dict, config_dir: Path):
    """The ASR and MT backends a config names, and the wire channel to
    close after the run, or None."""
    backend = json_field(config, "backend", dict, default={"kind": "mock"})
    kind = json_field(backend, "kind", str, "backend")
    if kind not in _BACKEND_KEYS:
        raise InvalidArgumentError(must_be("backend.kind", "'mock' or 'wire'", kind))
    for key, value in backend.items():
        if key not in _BACKEND_KEYS[kind]:
            takes = ", ".join(_BACKEND_KEYS[kind])
            raise InvalidArgumentError(
                must_be(f"backend.{key}", f"left out: a {kind!r} backend takes only {takes}", value)
            )
    if kind == "mock":
        from .backends import MockAsrBackend, MockMtBackend, load_mock_script

        script_path = json_field(config, "mock_script", str)
        if not script_path:
            raise InvalidArgumentError(must_be("mock_script", "a file name", script_path))
        scripts = load_mock_script(config_dir / script_path)
        return MockAsrBackend(scripts.asr), MockMtBackend(scripts.mt), None
    from .wire import DEFAULT_TIMEOUT_S, WireAsrBackend, WireChannel, WireMtBackend

    command = json_field(backend, "command", list, "backend", items=str)
    if not command:
        raise InvalidArgumentError(must_be("backend.command", "a non-empty list", command))
    timeout = json_field(backend, "timeout_s", float, "backend", default=DEFAULT_TIMEOUT_S)
    if not timeout > 0:
        raise InvalidArgumentError(must_be("backend.timeout_s", "> 0", timeout))
    channel = WireChannel.spawn(command)
    return WireAsrBackend(channel, timeout), WireMtBackend(channel, timeout), channel


def cmd_simulate(args: argparse.Namespace) -> int:
    from .pipeline import Pipeline, apply_overrides, preset_config, read_trace

    config_raw = read_json_file(args.config)
    config = preset_config(json_field(config_raw, "table3", str, default="adapted"))
    config = apply_overrides(config, config_raw.get("overrides", {}))
    events = read_trace(args.trace)
    asr_backend, mt_backend, channel = _build_backends(config_raw, Path(args.config).parent)
    try:
        pipeline = Pipeline(config, asr_backend, mt_backend)
        records, summary = pipeline.run_trace(events)
    finally:
        if channel is not None:
            channel.close()
    write_emission_log(records, args.out)
    json_report(summary.to_dict(), args.summary or f"{args.out}.summary.json")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import evaluate, read_emission_log, read_reference_segments

    log = read_emission_log(args.log)
    refs = read_reference_segments(args.refs)
    report = evaluate(log, refs)
    sys.stdout.write(json_report(report, args.out))
    return 0


def cmd_datagen(args: argparse.Namespace) -> int:
    from .datagen import GenConfig, generate_samples, load_corpus, write_samples

    result = load_corpus(args.corpus)
    if result.malformed:
        for lineno, reason in result.malformed:
            print(
                json.dumps({"warning": "malformed line", "line": lineno, "reason": reason}),
                file=sys.stderr,
            )
    # An option left out takes its default from ``GenConfig`` alone.
    options = ("max_context", "min_context", "prefix_rate", "seed")
    config = GenConfig(
        **{name: getattr(args, name) for name in options if getattr(args, name) is not None}
    )
    samples, stats = generate_samples(result.documents, config, args.samples)
    source_path, target_path, stats_path = write_samples(samples, stats, args.out_prefix)
    print(
        json.dumps(
            {
                "source": str(source_path),
                "target": str(target_path),
                "stats": str(stats_path),
                **stats.to_dict(),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .metrics import LatencyStats, evaluate, read_emission_log, read_reference_segments

    refs = read_reference_segments(args.refs)
    runs = []
    for log_path in args.logs:
        log = read_emission_log(log_path)
        report = evaluate(log, refs)
        runs.append({"log": str(log_path), "nca": report["nca"], "ca": report["ca"]})
    comparison = {"runs": runs}
    if args.json:
        json_report(comparison, args.json)
    name_width = max(len(run["log"]) for run in runs) + 2
    header = "run".ljust(name_width) + "mode  " + "".join(
        h.rjust(9) for h in _TABLE_HEADERS
    )
    print(header)
    for run in runs:
        for mode in ("nca", "ca"):
            row = run["log"].ljust(name_width) + mode.upper().ljust(6)
            row += "".join(f"{run[mode][c]:9.3f}" for c in LatencyStats._fields)
            print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulstream",
        description="Deterministic simultaneous speech translation control plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replay an audio trace through the pipeline")
    p.add_argument("trace", help="JSONL trace of audio availability events")
    p.add_argument("config", help="JSON pipeline configuration")
    p.add_argument("out", help="output emission log (JSONL)")
    p.add_argument("--summary", help="summary JSON path (default: OUT.summary.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="score an emission log against references")
    p.add_argument("log", help="emission log (JSONL)")
    p.add_argument("refs", help="reference segments (JSONL)")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("datagen", help="generate prefix training samples")
    p.add_argument("corpus", help="document-aligned bitext ('src ||| tgt' lines)")
    p.add_argument("out_prefix", help="output prefix for .src/.tgt/.stats.json")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--prefix-rate", type=float)
    p.add_argument("--min-context", type=int)
    p.add_argument("--max-context", type=int)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("bench", help="compare latency reports across runs")
    p.add_argument("logs", nargs="+", help="emission logs (JSONL)")
    p.add_argument("--refs", required=True, help="reference segments (JSONL)")
    p.add_argument("--json", help="also write the comparison JSON here")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BackendError, ProtocolError, InvalidArgumentError, OSError) as exc:
        return report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
