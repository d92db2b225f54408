"""Command-line surface checks that need no verification run.

* **budget flags** — ``--timeout`` and ``--drain-timeout`` take a number
  of seconds from 0 (no budget) to 1e9, ``--max-states`` and ``--fuel``
  a count >= 1.  Anything else exits 2 at argument parsing with a
  message naming the flag: a NaN, infinite or huge timeout used to turn
  every row into ``error`` (``setitimer`` rejects it) and, under
  ``serve``, a NaN one disarmed the parent's SIGKILL backstop;
  ``--max-states -5`` reported ``truncated`` after 0 states.
* **schema names** — every ``repro-bench/vN`` named in ``src/`` and
  ``tools/`` is the current :data:`repro.driver.report.SCHEMA`, except
  the version changelog in ``report.py``'s own docstring.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.driver import __main__ as cli
from repro.driver.__main__ import main as cli_main
from repro.driver.report import SCHEMA

REPO = Path(__file__).resolve().parent.parent

BAD_FLAGS = [
    ("verify", "--timeout", "nan"),
    ("verify", "--timeout", "inf"),
    ("verify", "--timeout", "-1"),
    ("verify", "--timeout", "1e12"),
    ("bench", "--timeout", "nan"),
    ("serve", "--timeout", "nan"),
    ("serve", "--drain-timeout", "nan"),
    ("serve", "--drain-timeout", "inf"),
    ("serve", "--drain-timeout", "-1"),
    ("verify", "--max-states", "-5"),
    ("verify", "--max-states", "0"),
    ("bench", "--max-states", "0"),
    ("verify", "--fuel", "0"),
    ("verify", "--fuel", "-5"),
]


@pytest.mark.parametrize(
    "cmd,flag,value", BAD_FLAGS, ids=[" ".join(c) for c in BAD_FLAGS]
)
def test_out_of_domain_budget_flag_exits_2(cmd, flag, value, capsys,
                                           monkeypatch):
    # The parse must fail before the command runs: a command that runs
    # fails the test instead of verifying, benchmarking or serving.
    def ran(args):
        raise AssertionError(f"{cmd} ran with {flag}={value}")

    monkeypatch.setattr(cli, f"_cmd_{cmd}", ran)
    argv = [cmd, "missing.rkt"] if cmd == "verify" else [cmd]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: {flag} must be" in capsys.readouterr().err


def test_zero_timeout_still_means_no_budget(tmp_path, capsys):
    prog = tmp_path / "div.rkt"
    prog.write_text("(quotient 1 •)\n")
    code = cli_main(["verify", str(prog), "--timeout", "0", "--max-states",
                     "1000", "--fuel", "1000", "--no-store"])
    assert code == 1  # a counterexample, found with no deadline armed
    assert "quotient" in capsys.readouterr().out


def _report_docstring_lines() -> set[int]:
    tree = ast.parse((REPO / "src/repro/driver/report.py").read_text())
    doc = tree.body[0]
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
    return set(range(doc.lineno, doc.end_lineno + 1))


def test_schema_names_are_current():
    pattern = re.compile(r"repro-bench/v\d+")
    changelog = _report_docstring_lines()
    stale = []
    for root in ("src", "tools"):
        for path in sorted((REPO / root).rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if rel == "src/repro/driver/report.py" and n in changelog:
                    continue
                stale += [f"{rel}:{n}: {m}" for m in pattern.findall(line)
                          if m != SCHEMA]
    assert not stale, stale
