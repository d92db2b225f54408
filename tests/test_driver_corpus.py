"""Driver integration: the corpus round-trips through the full pipeline,
the batch runner parallelises it, and the JSON report schema is stable."""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import check_program
from repro.driver import (
    CORPUS,
    RunConfig,
    corpus_names,
    get_program,
    lower_program,
    run_corpus,
    verify_source,
)
from repro.driver.__main__ import main as cli_main
from repro.driver.report import (
    SCHEMA,
    ProgramResult,
    STATUS_COUNTEREXAMPLE,
    STATUS_ERROR,
    STATUS_SAFE,
    STATUS_TIMEOUT,
    STATUS_TRUNCATED,
    STATUS_UNSUPPORTED,
)
from repro.lang.parser import parse_program

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCorpusIntegrity:
    def test_names_unique(self):
        names = [p.name for p in CORPUS]
        assert len(names) == len(set(names))

    def test_balanced_pairs(self):
        assert len(corpus_names(kind="safe")) == len(corpus_names(kind="buggy"))
        assert len(CORPUS) >= 30

    def test_smoke_subset(self):
        smoke = corpus_names(tag="smoke")
        assert 4 <= len(smoke) <= len(CORPUS) // 2

    def test_every_core_program_parses_lowers_and_typechecks(self):
        for p in CORPUS:
            if "core" in p.backends:
                core = lower_program(parse_program(p.source))
                check_program(core)

    def test_every_program_parses(self):
        for p in CORPUS:
            parse_program(p.source)

    def test_contract_section_is_scv_only(self):
        contract = corpus_names(tag="contracts")
        assert len(contract) >= 10
        for n in contract:
            assert get_program(n).backends == ("scv",)

    def test_get_program_unknown(self):
        with pytest.raises(KeyError):
            get_program("definitely-not-a-benchmark")


# One full-corpus run shared by the round-trip and report tests.
@pytest.fixture(scope="module")
def full_report():
    return run_corpus(config=RunConfig(jobs=2, timeout_s=60.0))


class TestCorpusRoundTrip:
    def test_every_verdict_matches_annotation(self, full_report):
        bad = [
            (r.name, r.kind, r.status, r.detail)
            for r in full_report.results
            if r.as_expected is not True
        ]
        assert bad == []

    def test_safe_programs_verify_clean(self, full_report):
        for r in full_report.results:
            if r.kind == "safe":
                assert r.status == STATUS_SAFE
                assert r.counterexample is None

    def test_buggy_programs_confirmed_twice(self, full_report):
        for r in full_report.results:
            if r.kind == "buggy":
                assert r.status == STATUS_COUNTEREXAMPLE
                cex = r.counterexample
                assert cex is not None
                # Theorem 1 check under core.concrete…
                assert cex.validated_core is True
                # …and the independent surface-interpreter oracle.
                assert cex.validated_conc is True
                assert cex.err_label and cex.err_op

    def test_stats_are_populated(self, full_report):
        for r in full_report.results:
            assert r.states_explored > 0
            assert r.wall_ms > 0

    def test_results_deterministic_across_runs(self, full_report):
        # Label/location counters are reset per program, so a result must
        # not depend on what else ran in the same worker process.
        row = next(r for r in full_report.results if r.name == "sum-unknown-fn")
        alone = verify_source(
            get_program("sum-unknown-fn").source,
            name="sum-unknown-fn",
            kind="buggy",
        )
        assert alone.counterexample == row.counterexample
        assert alone.states_explored == row.states_explored


TOP_KEYS = {"schema", "config", "totals", "backends", "agreement", "programs"}
PROGRAM_KEYS = {
    "name", "kind", "status", "wall_ms", "backend", "states_explored",
    "proof_queries", "solver_queries", "pruned_states", "solver_cache_hits",
    "chained_steps", "solver_fresh_solves", "solver_unknown", "errors_found",
    "cex_attempts", "store_hits", "store_misses", "modules_reverified",
    "compiled_units", "compile_ms", "dispatch_steps",
    "deadline_enforced", "counterexample", "detail",
}
CEX_KEYS = {
    "bindings", "err_label", "err_op", "validated_core", "validated_conc",
    "err_detail", "client",
}
TOTALS_KEYS = {
    "programs", "as_expected", "unexpected", "safe", "counterexamples",
    "validated_counterexamples", "timeouts", "states_explored",
    "chained_steps", "pruned_states", "solver_queries",
    "solver_cache_hits", "solver_fresh_solves", "solver_unknown", "store_hits",
    "store_misses", "modules_reverified", "compiled_units", "compile_ms",
    "dispatch_steps",
    "wall_ms", "max_wall_ms",
}
AGREEMENT_KEYS = {
    "shared_programs", "agreed", "inconclusive", "disagreements",
    "counterexamples",
}


class TestReportSchema:
    def test_json_shape(self, full_report, tmp_path):
        out = tmp_path / "BENCH_driver.json"
        full_report.write(str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA
        assert set(data) == TOP_KEYS
        assert set(data["totals"]) == TOTALS_KEYS
        assert set(data["agreement"]) == AGREEMENT_KEYS
        assert len(data["programs"]) == len(corpus_names(backend="core"))
        for row in data["programs"]:
            assert set(row) == PROGRAM_KEYS
            if row["counterexample"] is not None:
                assert set(row["counterexample"]) == CEX_KEYS

    def test_tracer_counter_is_a_constant_not_a_field(self):
        # The benchmark's tracer still reads ``solver_incremental``; the
        # row keeps it as a class constant that is never serialised.
        assert ProgramResult.solver_incremental == 0
        assert "solver_incremental" not in {
            f.name for f in fields(ProgramResult)
        }
        assert "solver_incremental" not in PROGRAM_KEYS

    def test_backend_sections(self, full_report):
        data = full_report.to_json()
        assert set(data["backends"]) == {"core"}
        assert set(data["backends"]["core"]) == TOTALS_KEYS

    def test_rows_sorted_by_name(self, full_report, tmp_path):
        out = tmp_path / "b.json"
        full_report.write(str(out))
        names = [r["name"] for r in json.loads(out.read_text())["programs"]]
        assert names == sorted(names)

    def test_config_block_is_the_run_config(self, full_report):
        # One sequential search path: the config block records exactly
        # the RunConfig knobs plus the batch shape, no sharding keys.
        from dataclasses import fields

        config = full_report.to_json()["config"]
        knobs = {f.name for f in fields(RunConfig)}
        assert set(config) == knobs | {"backend", "programs", "runs"}
        assert not {"shards", "compile_cache_dir", "client_of"} & set(config)
        # The committed reports were recorded under today's knobs too:
        # a removed knob left in their config block means they are stale.
        for report in ("BENCH_driver.json", "BENCH_warm.json"):
            committed = json.loads((REPO_ROOT / report).read_text())
            assert set(committed["config"]) == set(config), report

    def test_committed_baselines_agree_row_for_row(self):
        # BENCH_warm.json (a store-backed run) is only the warm leg's perf
        # baseline; a cache must not change an answer, so its stable rows
        # are BENCH_driver.json's (a store-less run).
        from repro.driver.report import VOLATILE_ROW_FIELDS

        def stable_rows(report: str) -> dict:
            committed = json.loads((REPO_ROOT / report).read_text())
            return {
                (r["name"], r["backend"]): {
                    k: v for k, v in r.items() if k not in VOLATILE_ROW_FIELDS
                }
                for r in committed["programs"]
            }

        assert stable_rows("BENCH_warm.json") == stable_rows("BENCH_driver.json")

    def test_totals_consistent(self, full_report):
        t = full_report.totals()
        assert t["programs"] == len(corpus_names(backend="core"))
        assert t["safe"] + t["counterexamples"] == t["programs"]
        assert t["unexpected"] == 0


@pytest.mark.parametrize("backend", ["core", "scv"])
class TestVerifyStatuses:
    """The status cascade of the verify loop both backends share."""

    def test_unsupported_source(self, backend):
        r = verify_source("(set! x 1)", backend=backend)
        assert r.status == STATUS_UNSUPPORTED
        if backend == "core":
            assert "LowerError" in r.detail or "ParseError" in r.detail
        else:  # scv runs set!, but nothing binds x
            assert r.detail == "ScopeError: unbound variable x"

    def test_unparseable_source(self, backend):
        r = verify_source("(((", backend=backend)
        assert r.status == STATUS_UNSUPPORTED

    @pytest.mark.parametrize("source, var", [
        ("(+ y 1)", "y"),
        ("(define (f x) (g x))\n(f 1)", "g"),
        ("(if #t 1 z)", "z"),  # unreachable, but still unbound
    ])
    def test_unbound_variable_is_unsupported(self, backend, source, var):
        r = verify_source(source, backend=backend)
        assert r.status == STATUS_UNSUPPORTED
        assert r.detail.endswith(f"unbound variable {var}")

    def test_truncated_on_unbounded_search(self, backend):
        src = "(define (spin n) (spin (+ n 1)))\n(spin •)"
        r = verify_source(src, config=RunConfig(max_states=40),
                          backend=backend)
        assert r.status == STATUS_TRUNCATED
        assert r.states_explored == 40

    def test_timeout_is_reported_not_raised(self, backend):
        slow = get_program("mod-denominator")  # ~1s of solver work
        r = verify_source(
            slow.source, name=slow.name, kind=slow.kind,
            config=RunConfig(timeout_s=0.01), backend=backend,
        )
        assert r.status in (STATUS_TIMEOUT, STATUS_COUNTEREXAMPLE)
        if r.status == STATUS_TIMEOUT:
            assert "wall clock" in r.detail

    def test_error_row_reports_cex_attempts(self, backend, monkeypatch):
        # A counterexample hook that raises is a driver error; the row
        # still reports the error state found and the attempt made.
        import repro.driver.backends as backends

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(backends, "construct", boom)
        monkeypatch.setattr(backends, "construct_u", boom)
        r = verify_source("(quotient 1 •)", backend=backend)
        assert r.status == STATUS_ERROR
        assert r.detail == "RuntimeError: boom"
        assert (r.errors_found, r.cex_attempts) == (1, 1)


class TestCli:
    def test_corpus_list(self, capsys):
        assert cli_main(["corpus", "list", "--kind", "buggy"]) == 0
        out = capsys.readouterr().out
        assert "div-unchecked" in out and "div-checked" not in out

    def test_corpus_show(self, capsys):
        assert cli_main(["corpus", "show", "strict-gap"]) == 0
        assert "quotient" in capsys.readouterr().out

    def test_bench_smoke_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_driver.json"
        code = cli_main(["bench", "--smoke", "--jobs", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == SCHEMA
        assert data["totals"]["unexpected"] == 0
        smoke_core = [
            n for n in corpus_names(tag="smoke")
            if "core" in get_program(n).backends
        ]
        assert len(data["programs"]) == len(smoke_core)

    def test_bench_has_no_shards_option(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--smoke", "--shards", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_has_no_mode_option(self, tmp_path, capsys):
        # Fig. 4's implication encoding is the only heap translation.
        out = tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--smoke", "--mode", "euf", "--out", str(out)])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_file_exit_codes(self, tmp_path):
        buggy = tmp_path / "buggy.rkt"
        buggy.write_text("(quotient 1 •)\n")
        assert cli_main(["verify", str(buggy)]) == 1
        safe = tmp_path / "safe.rkt"
        safe.write_text("(quotient 1 (add1 (* • 0)))\n")
        assert cli_main(["verify", str(safe)]) == 0
