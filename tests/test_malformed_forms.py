"""The parser's error contract, end to end: a malformed special form is
a ``ParseError``, never an ``IndexError``/``TypeError`` escaping the
parser.

Planning parses every program (``repro.driver.units.plan_units``), so
every run — with or without a store, and ``repro serve``'s manager
thread, which plans each job to size its deadline backstop — depends on
this contract.  Each form must:

* raise ``ParseError``;
* give an ``unsupported`` row on both backends, with and without a
  store (the store keys only text that parses);
* get a 202 from ``POST /v1/verify``, with the service dispatching the
  next job after it.
"""

from dataclasses import replace

import pytest

from repro.driver.report import STATUS_SAFE, STATUS_UNSUPPORTED
from repro.driver.runner import RunConfig, verify_source
from repro.lang.parser import ParseError, parse_program
from test_serve import _Server

MALFORMED = (
    "(let)",
    "(let loop)",
    "(let* ([x]) x)",
    "(letrec)",
    "(case)",
    "(set!)",
    "(quote)",
    "(when)",
    "(unless)",
    "(->d)",
    "(module)",
    "(module m (struct))",
)


@pytest.mark.parametrize("source", MALFORMED)
def test_raises_parse_error(source):
    with pytest.raises(ParseError):
        parse_program(source)


@pytest.mark.parametrize("backend", ["core", "scv"])
@pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize("source", MALFORMED)
def test_runs_report_unsupported(source, store, backend, tmp_path):
    cfg = RunConfig(timeout_s=60.0)
    if store:
        cfg = replace(cfg, store_dir=str(tmp_path / "store"))
    row = verify_source(source, config=cfg, backend=backend)
    assert row.status == STATUS_UNSUPPORTED
    assert row.detail.startswith("ParseError: ")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = _Server(tmp_path_factory.mktemp("serve"))
    try:
        yield srv
    finally:
        srv.close()


@pytest.mark.parametrize("source", MALFORMED)
def test_serve_accepts_and_keeps_dispatching(source, server):
    code, resp = server.request(
        "/v1/verify", {"source": source, "backend": "both"})
    assert code == 202
    job = server.wait_done(resp["job"]["id"])
    assert [r["status"] for r in job["rows"]] == [STATUS_UNSUPPORTED] * 2
    # The next job is planned and dispatched as usual.
    code, resp = server.request(
        "/v1/verify", {"source": f"(+ 1 {len(source)})", "backend": "scv",
                       "kind": "safe"})
    assert code in (200, 202)
    job = resp["job"] if code == 200 else server.wait_done(resp["job"]["id"])
    assert [r["status"] for r in job["rows"]] == [STATUS_SAFE]
