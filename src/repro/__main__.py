"""Command-line interface for the XCluster reproduction.

Subcommands::

    python -m repro summarize INPUT.xml -o synopsis.bin \
        --structural-budget 4096 --value-budget 32768 [--format snapshot]
    python -m repro estimate synopsis.bin "//movie[./year >= 2000]/title"
    python -m repro convert synopsis.json synopsis.bin --format snapshot
    python -m repro serve (synopsis.bin | --document INPUT.xml) \
        [--host H] [--port P]
    python -m repro evaluate INPUT.xml "//movie[./year >= 2000]/title"
    python -m repro experiments [--scale 0.25] [--queries 15]
    python -m repro check [--rounds 3] [--seed S] [--synopsis FILE] \
        [--evaluator] [--updates [--updates-per-round N]] [--collection]
    python -m repro ingest INPUT.xml [--chunk-size N] [--compare]
    python -m repro collection build ROOT --input DIR [--shards N] \
        [--budget B] [--no-compress]
    python -m repro collection rebalance ROOT --log LOG.jsonl
    python -m repro collection stats ROOT [--json]
    python -m repro collection export ROOT --edge-model OUT_DIR

``summarize`` stream-parses an XML file into the columnar store, builds
a budgeted XCluster synopsis, and saves it as interchange JSON or the
binary mmap snapshot format;
``estimate`` loads a saved synopsis (either format, auto-detected by
magic bytes) and prints the estimated selectivity of a twig query;
``convert`` re-encodes a saved synopsis between the two formats;
``serve`` runs the always-on estimation daemon of :mod:`repro.serve`;
``evaluate`` stream-parses the document and prints the exact
selectivity;
``experiments`` regenerates every table and figure of the paper's
evaluation section; ``check`` runs the differential verification
subsystem — the invariant auditor over a fresh (or saved) synopsis plus
the seeded engine-parity fuzzer — and exits non-zero on any violation
(see docs/TESTING.md); ``ingest`` stream-parses a document into the
columnar store and reports its shape, optionally checking that the
object-tree parser front end yields the same document; ``collection``
manages a directory-of-snapshots collection store — parallel dedup
build, workload-driven budget rebalance from an observed query log,
stats, and edge-model CSV export — which ``serve --collection`` then
serves with per-document routing.

Bad input — an unreadable file, malformed XML, a bad XPath or JSON
query, a file that is not a synopsis, a bad update stream or collection
manifest — exits with status 2 and one ``repro: error: <message>`` line
on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

# At start only ``argparse``, the error type and the ``--help`` defaults
# load; each command imports what it runs, so ``--help`` and a read-only
# daemon compile none of the build, ingest or update layers.
from repro.defaults import DEFAULT_CHUNK_SIZE
from repro.errors import InputError


def _save_in_format(synopsis, path: str, format_name: str) -> None:
    """Persist a synopsis as interchange JSON or a binary snapshot."""
    if format_name == "snapshot":
        from repro.core.snapshot import save_snapshot

        save_snapshot(synopsis, path)
    else:
        from repro.core.serialization import save_synopsis

        save_synopsis(synopsis, path)


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.core.builder import build_xcluster
    from repro.core.sizing import (
        structural_size_bytes,
        total_size_bytes,
        value_size_bytes,
    )
    from repro.xmltree.columnar import ingest_file

    doc = ingest_file(args.input)
    synopsis = build_xcluster(
        doc,
        structural_budget=args.structural_budget,
        value_budget=args.value_budget,
    )
    _save_in_format(synopsis, args.output, args.format)
    print(
        f"{args.input}: {len(doc)} elements -> {len(synopsis)} clusters, "
        f"{structural_size_bytes(synopsis)} structural + "
        f"{value_size_bytes(synopsis)} value bytes "
        f"({total_size_bytes(synopsis)} total) -> {args.output} [{args.format}], "
        f"{os.path.getsize(args.output)} file bytes"
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_synopsis

    synopsis = load_synopsis(args.input)  # format auto-detected
    _save_in_format(synopsis, args.output, args.format)
    print(
        f"{args.input} -> {args.output} [{args.format}], "
        f"{len(synopsis)} clusters, "
        f"{os.path.getsize(args.output)} bytes"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.sizing import total_size_bytes
    from repro.serve.engine import ServeEngine
    from repro.serve.http import run_server

    given = [
        source
        for source in (args.synopsis, args.document, args.collection)
        if source is not None
    ]
    if len(given) != 1:
        print(
            "serve needs exactly one of a saved synopsis, --document, "
            "or --collection",
            file=sys.stderr,
        )
        return 2
    if args.collection is not None:
        from repro.collection.store import CollectionStore
        from repro.serve.collection import CollectionServeEngine

        store = CollectionStore(
            args.collection, max_open_shards=args.max_open_shards
        )
        engine = CollectionServeEngine(
            store,
            window_seconds=args.window_ms / 1000.0,
            max_batch=args.max_batch,
        )
        manifest = store.manifest
        print(
            f"collection {args.collection} v{manifest.version}: "
            f"{manifest.documents} documents across "
            f"{manifest.shard_count} shards "
            f"(rollup: {'yes' if manifest.rollup_path else 'no'}), "
            f"routing /estimate by 'doc', read-only",
            flush=True,
        )
    elif args.document is not None:
        from repro.update.maintainer import IncrementalMaintainer
        from repro.xmltree.columnar import ingest_file

        doc = ingest_file(args.document)
        maintainer = IncrementalMaintainer(doc)
        engine = ServeEngine(
            maintainer=maintainer,
            window_seconds=args.window_ms / 1000.0,
            max_batch=args.max_batch,
        )
        print(
            f"maintaining {args.document}: {len(doc)} elements -> "
            f"{len(engine.synopsis)} clusters, "
            f"{total_size_bytes(engine.synopsis)} synopsis bytes, "
            "updates enabled (POST /update)",
            flush=True,
        )
    else:
        from repro.core.snapshot import is_snapshot, load_snapshot

        if is_snapshot(args.synopsis):
            synopsis = load_snapshot(args.synopsis)
        else:
            from repro.core.serialization import load_synopsis

            synopsis = load_synopsis(args.synopsis)
        engine = ServeEngine(
            synopsis,
            window_seconds=args.window_ms / 1000.0,
            max_batch=args.max_batch,
        )
        print(
            f"loaded {args.synopsis}: {len(synopsis)} clusters, "
            f"{total_size_bytes(synopsis)} synopsis bytes",
            flush=True,
        )
    run_server(engine, host=args.host, port=args.port)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.estimation.engine import estimate_selectivity
    from repro.core.serialization import load_synopsis
    from repro.query.xpath import parse_twig

    synopsis = load_synopsis(args.synopsis)
    query = parse_twig(args.query)
    print(f"{estimate_selectivity(synopsis, query):.3f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.query.evaluator import evaluate_selectivity
    from repro.query.xpath import parse_twig
    from repro.xmltree.columnar import ingest_file

    doc = ingest_file(args.input)
    query = parse_twig(args.query)
    print(evaluate_selectivity(doc, query))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ExperimentConfig,
        ExperimentContext,
        figure8_series,
        figure9_rows,
        format_series,
        format_table,
        table1_rows,
        table2_rows,
    )
    from repro.experiments.figures import FIGURE8_SERIES

    config = ExperimentConfig(scale=args.scale, queries_per_class=args.queries)
    context = ExperimentContext(config)

    print("== Table 1: Data Set Characteristics ==")
    print(
        format_table(
            ["Dataset", "File Size (MB)", "# Elements", "Ref. Size (KB)",
             "# Nodes: Value/Total"],
            [
                [row.dataset, f"{row.file_size_mb:.2f}", row.element_count,
                 f"{row.reference_size_kb:.1f}",
                 f"{row.value_nodes} / {row.total_nodes}"]
                for row in table1_rows(context)
            ],
        )
    )
    print("\n== Table 2: Workload Characteristics ==")
    print(
        format_table(
            ["Dataset", "Avg. Result (Struct)", "Avg. Result (Pred)"],
            [
                [row.dataset, f"{row.avg_result_struct:.0f}",
                 f"{row.avg_result_pred:.0f}"]
                for row in table2_rows(context)
            ],
        )
    )

    results = {}
    for name, figure in (("imdb", "8(a)"), ("xmark", "8(b)")):
        result = figure8_series(context, name)
        results[name] = result
        table = result.as_series_table()
        print(
            "\n"
            + format_series(
                f"== Figure {figure}: {name} — Avg. Rel. Error (%) vs Size (KB) ==",
                "Size(KB)",
                result.total_kb,
                [table[series_name] for series_name, _ in FIGURE8_SERIES],
                [series_name for series_name, _ in FIGURE8_SERIES],
            )
        )

    print("\n== Figure 9: Absolute error for low-count queries ==")
    print(
        format_table(
            ["", "IMDB", "XMark"],
            [
                [row.query_class.value.capitalize(), f"{row.imdb:.3f}",
                 f"{row.xmark:.3f}"]
                for row in figure9_rows(results["imdb"], results["xmark"])
            ],
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.check import (
        CheckReport,
        DifferentialHarness,
        HarnessConfig,
        InvariantAuditor,
    )

    if args.evaluator or args.updates or args.collection:
        # Focused fuzz modes: a single stage per round, so many more
        # probes fit in the same wall-clock than the full pipeline.
        harness = DifferentialHarness(
            HarnessConfig(
                seed=args.seed,
                rounds=args.rounds,
                updates_per_round=args.updates_per_round,
            )
        )
        if args.updates:
            report = harness.run_updates()
        elif args.collection:
            report = harness.run_collection()
        else:
            report = harness.run_evaluator()
        if args.json:
            print(json_module.dumps(report.to_dict(), indent=2))
        else:
            print(report.format_text())
        return 0 if report.ok else 1

    auditor = InvariantAuditor()
    report = CheckReport(seed=args.seed)

    if args.synopsis:
        from repro.core.serialization import load_synopsis

        synopsis = load_synopsis(args.synopsis, verify=False)
        report.violations.extend(auditor.audit(synopsis))
    else:
        from repro.core.builder import BuildConfig, XClusterBuilder
        from repro.core.reference import build_reference_synopsis
        from repro.core.sizing import structural_size_bytes, value_size_bytes
        from repro.datasets import generate_xmark

        dataset = generate_xmark(scale=args.scale, seed=7)
        reference = build_reference_synopsis(
            dataset.tree, dataset.value_paths
        )
        report.violations.extend(auditor.audit(reference))
        # The audited build also re-derives the scoring engine's cached
        # profiles (child moments and every σ) against the synopsis.
        builder = XClusterBuilder(
            BuildConfig(
                structural_budget=max(256, structural_size_bytes(reference) // 2),
                value_budget=max(256, value_size_bytes(reference) // 2),
                audit=True,
            )
        )
        builder.build(dataset.tree, dataset.value_paths)
        report.violations.extend(builder.stats.audit_violations)

    if not args.skip_fuzz:
        harness = DifferentialHarness(
            HarnessConfig(seed=args.seed, rounds=args.rounds)
        )
        report.extend(harness.run())

    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.xmltree.columnar import ingest_file

    source_bytes = os.path.getsize(args.input)
    started = perf_counter()
    doc = ingest_file(args.input, chunk_size=args.chunk_size)
    ingest_seconds = perf_counter() - started
    throughput = (
        source_bytes / ingest_seconds / 1e6 if ingest_seconds > 0 else 0.0
    )
    print(
        f"{args.input}: {len(doc)} elements, {len(doc.label_table)} labels, "
        f"{len(doc.path_parent)} paths, {len(doc.term_table)} terms, "
        f"{doc.nbytes()} column bytes in {ingest_seconds:.3f}s"
    )
    print(
        f"throughput: {source_bytes / 1e6:.2f} MB in "
        f"{args.chunk_size}-byte chunks -> {throughput:.1f} MB/s"
    )
    if not args.compare:
        return 0

    from repro.core.reference import build_reference_synopsis
    from repro.core.serialization import synopsis_to_dict
    from repro.xmltree.columnar import freeze
    from repro.xmltree.parser import parse_document
    from repro.xmltree.stats import collect_statistics

    started = perf_counter()
    tree = parse_document(args.input)
    parse_seconds = perf_counter() - started
    frozen = freeze(tree)
    # Front-end parity: the object parser's document, frozen, must give
    # the stream ingest's synopsis, statistics and structure columns.
    value_paths = doc.value_paths()
    synopses_match = synopsis_to_dict(
        build_reference_synopsis(frozen, value_paths, with_summaries=False)
    ) == synopsis_to_dict(
        build_reference_synopsis(doc, value_paths, with_summaries=False)
    )
    stats_match = collect_statistics(frozen) == collect_statistics(doc)
    columns_match = all(
        getattr(doc, name) == getattr(frozen, name)
        for name in ("parent", "first_child", "next_sibling", "post", "level")
    )
    print(f"object-tree parse: {parse_seconds:.3f}s")
    print(f"reference synopsis parity: {'ok' if synopses_match else 'DIVERGED'}")
    print(f"statistics parity: {'ok' if stats_match else 'DIVERGED'}")
    print(f"column parity: {'ok' if columns_match else 'DIVERGED'}")
    return 0 if synopses_match and stats_match and columns_match else 1


def _read_query_log(path: str):
    """An observed query log: JSON lines of ``{"doc": ..., "query": ...}``.

    A JSON array of the same objects is accepted too (the serve tier
    and tests emit either).  Returns ``[(doc_id, TwigQuery), ...]``;
    a log that is not such JSON raises :class:`QueryFormatError`.
    """
    import json as json_module

    from repro.query.jsonast import QueryFormatError
    from repro.query.xpath import parse_twig

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            rows = json_module.loads(stripped)
        else:
            rows = [
                json_module.loads(line)
                for line in text.splitlines()
                if line.strip()
            ]
    except json_module.JSONDecodeError as error:
        raise QueryFormatError(f"{path} is not a JSON query log: {error}")
    log = []
    for row in rows:
        if not isinstance(row, dict) or "doc" not in row or "query" not in row:
            raise QueryFormatError(
                "each log entry must be an object with 'doc' and 'query'"
            )
        log.append((row["doc"], parse_twig(row["query"])))
    return log


def _cmd_collection(args: argparse.Namespace) -> int:
    import json as json_module
    from time import perf_counter

    from repro.collection import (
        CollectionConfig,
        CollectionStore,
        build_collection,
        export_edge_model,
        rebalance_collection,
    )

    if args.action == "build":
        inputs = sorted(
            name
            for name in os.listdir(args.input)
            if name.endswith(".xml")
        )
        if not inputs:
            print(f"no .xml files under {args.input}", file=sys.stderr)
            return 2

        def documents():
            for name in inputs:
                with open(
                    os.path.join(args.input, name), "r", encoding="utf-8"
                ) as handle:
                    yield name, handle.read()

        config = CollectionConfig(
            shard_count=args.shards,
            total_budget=args.budget,
            structural_share=args.structural_share,
            compress=not args.no_compress,
        )
        started = perf_counter()
        manifest, report = build_collection(args.root, documents(), config)
        elapsed = perf_counter() - started
        print(
            f"built {args.root} v{manifest.version}: {report.documents} "
            f"documents ({report.distinct_structures} distinct, "
            f"{report.dedup_rate:.0%} deduplicated) across "
            f"{manifest.shard_count} shards in {elapsed:.2f}s "
            f"(budget={manifest.total_budget} bytes, "
            f"rollup: {'yes' if manifest.rollup_path else 'no'})"
        )
        return 0

    if args.action == "rebalance":
        log = _read_query_log(args.log)
        started = perf_counter()
        manifest, report = rebalance_collection(args.root, log)
        elapsed = perf_counter() - started
        multipliers = ", ".join(
            f"{shard_id}:{multiplier:.2f}"
            for shard_id, multiplier in sorted(report.multipliers.items())
        )
        print(
            f"rebalanced {args.root} -> v{manifest.version} from "
            f"{len(log)} logged queries in {elapsed:.2f}s: "
            f"{report.payloads_reused} payloads reused, "
            f"{report.payload_builds} recompressed; "
            f"multipliers [{multipliers}]"
        )
        return 0

    if args.action == "stats":
        store = CollectionStore(args.root, verify=args.verify)
        snapshot = store.stats_snapshot()
        if args.json:
            print(json_module.dumps(snapshot, indent=2, sort_keys=True))
        else:
            budgets = ", ".join(
                str(budget) for budget in snapshot["budget_distribution"]
            )
            print(
                f"{args.root} v{snapshot['version']}: "
                f"{snapshot['documents']} documents, "
                f"{snapshot['distinct_structures']} distinct structures, "
                f"{snapshot['shard_count']} shards, "
                f"budget {snapshot['total_budget']} bytes [{budgets}], "
                f"rollup: {'yes' if snapshot['rollup'] else 'no'}"
            )
        return 0

    # export
    store = CollectionStore(args.root)
    written = export_edge_model(store, args.edge_model)
    for name in sorted(written):
        print(f"{os.path.join(args.edge_model, name)}: {written[name]} rows")
    return 0


def _default_rounds() -> int:
    """Fuzz rounds: the ``REPRO_CHECK_ROUNDS`` env knob, default 3."""
    try:
        return max(0, int(os.environ.get("REPRO_CHECK_ROUNDS", "3")))
    except ValueError:
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="XCluster synopses (ICDE 2006 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser("summarize", help="build and save a synopsis")
    summarize.add_argument("input", help="XML document to summarize")
    summarize.add_argument("-o", "--output", required=True, help="synopsis path")
    summarize.add_argument("--structural-budget", type=int, default=4096)
    summarize.add_argument("--value-budget", type=int, default=32768)
    summarize.add_argument(
        "--format",
        choices=("json", "snapshot"),
        default="json",
        help="output encoding: portable JSON or the binary mmap "
        "snapshot format (default %(default)s)",
    )
    summarize.set_defaults(handler=_cmd_summarize)

    estimate = commands.add_parser("estimate", help="estimate a twig's selectivity")
    estimate.add_argument(
        "synopsis", help="synopsis path (JSON or snapshot, auto-detected)"
    )
    estimate.add_argument("query", help="twig query, e.g. //a[./b >= 3]/c")
    estimate.set_defaults(handler=_cmd_estimate)

    convert = commands.add_parser(
        "convert", help="re-encode a saved synopsis between formats"
    )
    convert.add_argument(
        "input", help="saved synopsis (JSON or snapshot, auto-detected)"
    )
    convert.add_argument("output", help="destination path")
    convert.add_argument(
        "--format",
        choices=("json", "snapshot"),
        default="snapshot",
        help="output encoding (default %(default)s)",
    )
    convert.set_defaults(handler=_cmd_convert)

    serve = commands.add_parser(
        "serve", help="run the always-on estimation daemon"
    )
    serve.add_argument(
        "synopsis",
        nargs="?",
        help="synopsis path (JSON or snapshot, auto-detected); "
        "omit when using --document",
    )
    serve.add_argument(
        "--document",
        help="serve a live synopsis maintained over this XML document "
        "(enables POST /update)",
    )
    serve.add_argument(
        "--collection",
        help="serve a built collection directory (routes /estimate by "
        "document id; read-only)",
    )
    serve.add_argument(
        "--max-open-shards",
        type=int,
        default=8,
        help="LRU capacity of open shard containers with --collection "
        "(default %(default)s)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    # Accepted only as 1, for the e2e benchmark client; the next change
    # to benchmarks/e2e drops the flag together with the client argument.
    serve.add_argument(
        "--workers", type=int, choices=[1], default=1, help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=0.0,
        help="coalescing window in milliseconds (default: next loop tick)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="distinct plans per dispatched batch (default %(default)s)",
    )
    serve.set_defaults(handler=_cmd_serve)

    evaluate = commands.add_parser("evaluate", help="exact selectivity on a document")
    evaluate.add_argument("input", help="XML document")
    evaluate.add_argument("query", help="twig query")
    evaluate.set_defaults(handler=_cmd_evaluate)

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("--scale", type=float, default=0.25)
    experiments.add_argument("--queries", type=int, default=15)
    experiments.set_defaults(handler=_cmd_experiments)

    check = commands.add_parser(
        "check",
        help="audit synopsis invariants and fuzz engine parity",
    )
    check.add_argument(
        "--rounds",
        type=int,
        default=_default_rounds(),
        help="fuzz rounds (default: REPRO_CHECK_ROUNDS env var, else 3)",
    )
    check.add_argument(
        "--seed", type=int, default=20060402, help="master fuzz seed"
    )
    check.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="XMark scale for the fresh-synopsis audit",
    )
    check.add_argument(
        "--synopsis",
        help="audit a saved synopsis (JSON or snapshot) instead of "
        "building one",
    )
    check.add_argument(
        "--skip-fuzz",
        action="store_true",
        help="run only the invariant audit, no differential rounds",
    )
    check.add_argument(
        "--evaluator",
        action="store_true",
        help="run evaluator-only fuzz rounds (interval-join engine vs "
        "the tree-walk oracle on workload + mutated twigs)",
    )
    check.add_argument(
        "--updates",
        action="store_true",
        help="run update-maintenance fuzz rounds (incremental maintainer "
        "vs rebuild-from-scratch after every seeded random update)",
    )
    check.add_argument(
        "--updates-per-round",
        type=int,
        default=40,
        help="random update ops per --updates round (default %(default)s)",
    )
    check.add_argument(
        "--collection",
        action="store_true",
        help="run collection-store fuzz rounds (shard-routed estimates "
        "vs a monolithic single-synopsis oracle on the merged document)",
    )
    check.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    check.set_defaults(handler=_cmd_check)

    ingest = commands.add_parser(
        "ingest",
        help="stream a document into the columnar store",
    )
    ingest.add_argument("input", help="XML document to ingest")
    ingest.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="streaming read size in bytes (default %(default)s)",
    )
    ingest.add_argument(
        "--compare",
        action="store_true",
        help="also parse with the object-tree front end and verify "
        "reference-synopsis, statistics and structure-column parity "
        "(exits non-zero on divergence)",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    collection = commands.add_parser(
        "collection",
        help="manage a directory-of-snapshots collection store",
    )
    actions = collection.add_subparsers(dest="action", required=True)

    coll_build = actions.add_parser(
        "build", help="build a collection from a directory of XML files"
    )
    coll_build.add_argument("root", help="collection directory to create")
    coll_build.add_argument(
        "--input",
        required=True,
        help="directory of .xml documents (file name becomes the doc id)",
    )
    coll_build.add_argument(
        "--shards", type=int, default=8, help="shard count (default %(default)s)"
    )
    coll_build.add_argument(
        "--budget",
        type=int,
        default=1 << 20,
        help="total synopsis bytes across all shards (default %(default)s)",
    )
    coll_build.add_argument(
        "--structural-share",
        type=float,
        default=0.3,
        help="B_str fraction of each payload budget (default %(default)s)",
    )
    coll_build.add_argument(
        "--no-compress",
        action="store_true",
        help="store uncompressed reference synopses (exact mode)",
    )
    coll_build.set_defaults(handler=_cmd_collection)

    coll_rebalance = actions.add_parser(
        "rebalance",
        help="reallocate synopsis bytes toward shards a query log hits",
    )
    coll_rebalance.add_argument("root", help="built collection directory")
    coll_rebalance.add_argument(
        "--log",
        required=True,
        help="observed query log: JSON lines (or a JSON array) of "
        '{"doc": <id>, "query": <xpath>}',
    )
    coll_rebalance.set_defaults(handler=_cmd_collection)

    coll_stats = actions.add_parser(
        "stats", help="print a collection's manifest and serving counters"
    )
    coll_stats.add_argument("root", help="built collection directory")
    coll_stats.add_argument(
        "--json", action="store_true", help="emit the stats as JSON"
    )
    coll_stats.add_argument(
        "--verify",
        action="store_true",
        help="hash-verify every container against the manifest first",
    )
    coll_stats.set_defaults(handler=_cmd_collection)

    coll_export = actions.add_parser(
        "export", help="dump the collection as edge-model CSV tables"
    )
    coll_export.add_argument("root", help="built collection directory")
    coll_export.add_argument(
        "--edge-model",
        required=True,
        metavar="OUT_DIR",
        help="destination directory for shards/documents/nodes/edges CSVs",
    )
    coll_export.set_defaults(handler=_cmd_collection)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, OSError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
