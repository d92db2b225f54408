"""``python -m repro`` — the command-line driver.

Subcommands (full reference: docs/CLI.md):

* ``verify FILE``  — run the full pipeline on one surface program;
  ``--emit-cex-client`` additionally prints the synthesized closed
  client program behind a counterexample (docs/COUNTEREXAMPLES.md);
* ``bench``        — run the benchmark corpus (optionally in parallel)
  and write the machine-readable ``BENCH_driver.json``;
* ``corpus list`` / ``corpus show NAME`` — inspect the corpus;
* ``store stats`` / ``store gc`` / ``store verify`` — maintain the
  persistent verification store (docs/ARCHITECTURE.md);
* ``serve``       — the long-lived verification service: an HTTP/JSON
  API with a persistent job queue and a process-based worker pool over
  a shared store directory (docs/SERVER.md).  Budget flags set the
  server-side defaults a request's ``config`` may override.

``verify`` and ``bench`` accept ``--store [DIR]`` to read/write the
persistent content-addressed result store (default directory
``.repro-store``; the ``REPRO_STORE`` environment variable supplies a
default, ``--no-store`` disables it).  Warm runs replay stored verdicts
byte-identically, re-verifying only units whose content changed.

Both ``verify`` and ``bench`` take ``--backend {core,scv,both}``:
``core`` is the typed §3 SPCF pipeline, ``scv`` the untyped §4 contract
pipeline, and ``both`` runs each program on every backend it supports
and cross-checks the verdicts (disagreements fail the run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .backends import BACKEND_CHOICES
from .corpus import CORPUS, corpus_names, get_program
from .report import STATUS_COUNTEREXAMPLE, STATUS_SAFE, render_report, render_result
from .runner import RunConfig, expand_tasks, run_corpus, verify_source


_DEFAULTS = RunConfig()  # the single source of budget defaults


def _to_int(text, what: str) -> int:
    """The one funnel for numeric options, wherever they arrive from.

    Flags go through :func:`_int_flag` (argparse's clean usage error),
    environment variables through :func:`_env_int` — both exit 2 with a
    message naming the option instead of dumping a ``ValueError``
    traceback (or worse, silently substituting a default)."""
    try:
        return int(str(text).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} must be an integer, got {text!r}"
        ) from None


def _int_flag(what: str):
    """An argparse ``type=`` callable with a named, clear error."""

    def parse(text: str) -> int:
        try:
            return _to_int(text, what)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = "int"  # argparse shows this in usage errors
    return parse


def _env_int(var: str, default: int) -> int:
    """Resolve an integer environment variable, exiting 2 on garbage
    (``REPRO_SERVE_WORKERS=abc`` must be a clear CLI error, not a traceback
    and not a silently-ignored setting)."""
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return default
    try:
        return _to_int(raw, f"environment variable {var}")
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="core",
        help="verification engine: typed core pipeline, untyped scv "
        "pipeline, or both cross-checked (default core)",
    )
    p.add_argument(
        "--max-states", type=int, default=_DEFAULTS.max_states,
        help=f"symbolic search state budget per program "
        f"(default {_DEFAULTS.max_states})",
    )
    p.add_argument(
        "--fuel", type=int, default=_DEFAULTS.fuel,
        help=f"concrete validation step budget (default {_DEFAULTS.fuel})",
    )
    p.add_argument(
        "--timeout", type=float, default=_DEFAULTS.timeout_s, metavar="SECONDS",
        help=f"per-program wall-clock budget (default {_DEFAULTS.timeout_s:g})",
    )
    p.add_argument(
        "--compile", dest="compile", action="store_true",
        default=_DEFAULTS.compile,
        help="lower each program to flat bytecode and expand states "
        "with the fused dispatch loop (byte-identical verdicts and "
        "counterexamples; the default)",
    )
    p.add_argument(
        "--no-compile", dest="compile", action="store_false",
        help="run the step-at-a-time machines instead of the bytecode "
        "dispatch loop (the differential oracle; verdicts must be "
        "identical)",
    )
    p.add_argument(
        "--no-memo", action="store_true",
        help="disable state-fingerprint memoisation and chain compression "
        "(the pre-kernel micro-step search; for A/B comparison)",
    )
    p.add_argument(
        "--store", nargs="?", const=None, default=argparse.SUPPRESS,
        metavar="DIR",
        help="persist and replay verification results in a content-"
        "addressed store (default directory .repro-store, or the "
        "REPRO_STORE environment variable)",
    )
    p.add_argument(
        "--no-store", action="store_true",
        help="ignore the store even if REPRO_STORE is set",
    )


def _store_dir(args: argparse.Namespace):
    """Resolve the store directory: --no-store > --store [DIR] >
    $REPRO_STORE > off."""
    if args.no_store:
        return None
    if hasattr(args, "store"):  # --store was given (maybe without a DIR)
        from ..store import DEFAULT_STORE_DIR

        return args.store or DEFAULT_STORE_DIR
    return os.environ.get("REPRO_STORE") or None


def _config(args: argparse.Namespace, jobs: int = 1) -> RunConfig:
    return RunConfig(
        max_states=args.max_states,
        fuel=args.fuel,
        timeout_s=args.timeout,
        jobs=jobs,
        memo=not args.no_memo,
        store_dir=_store_dir(args),
        compile=args.compile,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.file == "-":
        source = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            print(f"repro: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
            return 2
        name = args.file
    backends = ("core", "scv") if args.backend == "both" else (args.backend,)
    results = [
        verify_source(source, name=name, config=_config(args), backend=b)
        for b in backends
    ]
    if args.json:
        rows = [asdict(r) for r in results]
        print(json.dumps(rows[0] if len(rows) == 1 else rows,
                         indent=2, sort_keys=True))
    else:
        for r in results:
            # With --emit-cex-client the client is printed once, as the
            # raw extractable block below, not also inside the row.
            print(render_result(
                r, verbose=True, show_client=not args.emit_cex_client
            ))
            if (
                args.emit_cex_client
                and r.counterexample is not None
                and r.counterexample.client
            ):
                print(f";; [{r.backend}] synthesized counterexample client "
                      "(closed program; re-runs the blame concretely):")
                print(r.counterexample.client.rstrip())
    statuses = {r.status for r in results}
    if len(results) > 1 and statuses == {STATUS_SAFE, STATUS_COUNTEREXAMPLE}:
        print("repro: backends disagree", file=sys.stderr)
        return 3
    if statuses == {STATUS_SAFE}:
        return 0
    if STATUS_COUNTEREXAMPLE in statuses:
        return 1
    return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.smoke:
        names = corpus_names(tag="smoke")
    else:
        names = [p.name for p in CORPUS]
    if args.filter:
        names = [n for n in names if args.filter in n]
    if not expand_tasks(names, args.backend):
        print("no corpus programs match the filter and backend selection",
              file=sys.stderr)
        return 2
    cfg = _config(args, jobs=args.jobs)
    verbose = args.verbose

    def progress(r):
        print(render_result(r, verbose=verbose), flush=True)

    report = run_corpus(
        names, config=cfg, progress=progress if verbose else None,
        backend=args.backend,
    )
    if not verbose:
        print(render_report(report))
    else:
        for line in render_report(report).splitlines():
            if line.startswith("--"):
                print(line)
    report.write(args.out)
    print(f"wrote {args.out}")
    if not report.backends_agree:
        return 3
    return 0 if report.all_as_expected else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.corpus_cmd == "show":
        try:
            p = get_program(args.name)
        except KeyError:
            print(f"repro: no corpus program named {args.name!r} "
                  "(see `repro corpus list`)", file=sys.stderr)
            return 2
        print(f"; {p.name} [{p.kind}] {' '.join(p.tags)}")
        print(f"; {p.description}")
        print(p.source)
        return 0
    # list
    for p in CORPUS:
        if args.kind and p.kind != args.kind:
            continue
        if args.tag and args.tag not in p.tags:
            continue
        tags = ",".join(p.tags)
        print(f"{p.name:28s} {p.kind:5s} [{tags}] {p.description}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import asdict as _asdict

    from ..serve.app import run_serve
    from ..store import DEFAULT_STORE_DIR

    # The server *is* the store's serving layer: --no-store merely
    # falls back to the default directory instead of disabling it.
    root = _store_dir(args) or DEFAULT_STORE_DIR
    port = args.port if args.port is not None else \
        _env_int("REPRO_SERVE_PORT", 8321)
    workers = args.workers if args.workers is not None else \
        _env_int("REPRO_SERVE_WORKERS", min(4, os.cpu_count() or 1))
    if workers < 1:
        print("repro: --workers must be at least 1", file=sys.stderr)
        return 2
    base = _asdict(_config(args))
    base["store_dir"] = root
    return run_serve(
        host=args.host,
        port=port,
        workers=workers,
        store_root=root,
        base_config=base,
        drain_timeout_s=args.drain_timeout,
        quiet=not args.verbose,
    )


def _cmd_store(args: argparse.Namespace) -> int:
    from ..store import DEFAULT_STORE_DIR, get_store
    from ..store.verdicts import check_entries

    root = args.dir or os.environ.get("REPRO_STORE") or DEFAULT_STORE_DIR
    if not os.path.isdir(root):
        print(f"repro: no store at {root!r} (run with --store first, or "
              "pass --dir)", file=sys.stderr)
        return 2
    store = get_store(root)
    if args.store_cmd == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
        return 0
    if args.store_cmd == "gc":
        summary = store.gc(max_bytes=args.max_bytes)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    # verify: re-run a sample of stored verdicts and compare
    outcome = check_entries(store, sample=args.sample)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    if outcome["mismatches"]:
        print(f"repro: {len(outcome['mismatches'])} stored verdict(s) "
              "disagree with fresh runs", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Higher-order symbolic execution with counterexamples "
        "(NguyenH15 reproduction)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_verify = sub.add_parser("verify", help="verify one program file")
    p_verify.add_argument("file", help="surface-syntax program ('-' for stdin)")
    p_verify.add_argument("--json", action="store_true", help="JSON output")
    p_verify.add_argument(
        "--emit-cex-client", action="store_true",
        help="after a counterexample, print the synthesized closed client "
        "program (runnable surface syntax) that reproduces the blame",
    )
    _add_budget_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run the benchmark corpus")
    p_bench.add_argument("--smoke", action="store_true",
                         help="only the fast smoke-tagged subset")
    p_bench.add_argument("--jobs", "-j", type=int, default=1,
                         help="worker processes (default 1)")
    p_bench.add_argument("--filter", default="",
                         help="only programs whose name contains this")
    p_bench.add_argument("--out", default="BENCH_fresh.json",
                         help="report path (default BENCH_fresh.json; the "
                         "committed BENCH_driver.json is the CI perf-gate "
                         "baseline — overwrite it only to re-baseline "
                         "deliberately)")
    p_bench.add_argument("--verbose", "-v", action="store_true",
                         help="stream per-program results")
    _add_budget_flags(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_corpus = sub.add_parser("corpus", help="inspect the corpus")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_cmd", required=True)
    p_list = corpus_sub.add_parser("list", help="list corpus programs")
    p_list.add_argument("--kind", choices=("safe", "buggy"), default=None)
    p_list.add_argument("--tag", default=None)
    p_list.set_defaults(fn=_cmd_corpus)
    p_show = corpus_sub.add_parser("show", help="print one program's source")
    p_show.add_argument("name")
    p_show.set_defaults(fn=_cmd_corpus)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived verification service over the store "
        "(HTTP/JSON; see docs/SERVER.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=_int_flag("--port"), default=None, metavar="PORT",
        help="listen port (default: the REPRO_SERVE_PORT environment "
        "variable, else 8321; 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--workers", type=_int_flag("--workers"), default=None, metavar="N",
        help="verification worker processes (default: REPRO_SERVE_WORKERS, "
        "else min(4, cpu count))",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="SECONDS",
        help="grace period for in-flight jobs on SIGTERM before workers "
        "are killed (default 60)",
    )
    p_serve.add_argument(
        "--verbose", "-v", action="store_true",
        help="log every HTTP request to stderr",
    )
    _add_budget_flags(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_store = sub.add_parser(
        "store", help="maintain the persistent verification store"
    )
    p_store.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store directory (default: $REPRO_STORE or .repro-store)",
    )
    store_sub = p_store.add_subparsers(dest="store_cmd", required=True)
    p_sstats = store_sub.add_parser(
        "stats", help="entry counts and sizes, as JSON"
    )
    p_sstats.set_defaults(fn=_cmd_store)
    p_sgc = store_sub.add_parser(
        "gc", help="compact the solver shards and optionally bound the size"
    )
    p_sgc.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest entries until the store fits this many bytes",
    )
    p_sgc.set_defaults(fn=_cmd_store)
    p_sverify = store_sub.add_parser(
        "verify",
        help="re-run a sample of stored verdicts and compare (exit 1 on "
        "any disagreement); solver-tier entries are not checked",
    )
    p_sverify.add_argument(
        "--sample", type=int, default=16,
        help="how many entries to re-check, evenly spaced over the store "
        "(default 16; 0 = all)",
    )
    p_sverify.set_defaults(fn=_cmd_store)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into head) — not our error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
