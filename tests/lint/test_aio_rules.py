"""Golden-fixture regression tests for the asyncio lint pass.

Each rule family has a fixture module in ``aio_fixtures/`` whose
offending lines carry a ``# MARK[RULE]`` comment, plus a clean control
exercising the same shapes without the defect.  The tests assert the
pass fires *exactly* on the marked lines -- no misses, no extras -- so
any precision or recall regression in :mod:`repro.lint.aio` shows up as
a line-level diff, not a vague count change.
"""

import re
from pathlib import Path

import pytest

from repro.lint import lint_package
from repro.lint.findings import Severity

FIXTURES = Path(__file__).resolve().parent / "aio_fixtures"

_MARK_RE = re.compile(r"#\s*MARK\[(?P<rule>[A-Z\-]+)\]")

GOLDEN = [
    "racy_await.py",
    "blocking_async.py",
    "blocking_callbacks.py",
    "replay_escape.py",
    "fork_capture.py",
    "det_dirty.py",
]
CLEAN = [
    "racy_clean.py",
    "blocking_clean.py",
    "replay_clean.py",
    "fork_clean.py",
    "det_clean.py",
]


def marked_lines(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, text in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _MARK_RE.search(text)
        if match is not None:
            out.append((lineno, match.group("rule")))
    return sorted(out)


def findings_for(path: Path) -> list:
    return lint_package(str(path)).findings


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_fires_exactly_on_marked_lines(self, name):
        path = FIXTURES / name
        expected = marked_lines(path)
        assert expected, f"{name} has no MARK comments"
        got = sorted((f.line, f.rule) for f in findings_for(path))
        assert got == expected, "\n".join(
            f.render() for f in findings_for(path)
        )

    @pytest.mark.parametrize("name", CLEAN)
    def test_clean_controls_stay_clean(self, name):
        findings = findings_for(FIXTURES / name)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_severities(self):
        severity = {}
        for name in GOLDEN:
            for f in findings_for(FIXTURES / name):
                severity[f.rule] = f.severity
        assert severity["AIO-RACE"] == Severity.ERROR
        assert severity["AIO-BLOCK"] == Severity.ERROR
        assert severity["REPLAY-ESCAPE"] == Severity.ERROR
        assert severity["FORK-CAPTURE"] == Severity.ERROR
        assert severity["FORK-ENTRY"] == Severity.WARNING
        assert severity["DET-WALLCLOCK"] == Severity.ERROR


class TestSuppressions:
    def test_justified_suppression_is_silent_and_not_stale(self):
        findings = findings_for(FIXTURES / "suppressed.py")
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_stale_suppression_is_reported(self):
        findings = findings_for(FIXTURES / "stale.py")
        assert [(f.line, f.rule) for f in findings] == [(7, "LINT-STALE")]
        assert findings[0].severity == Severity.WARNING


class TestWholeDirectory:
    def test_directory_run_matches_per_file_union(self):
        result = lint_package(str(FIXTURES))
        got = sorted((Path(f.path).name, f.line, f.rule) for f in result.findings)
        expected = []
        for name in GOLDEN + CLEAN + ["suppressed.py"]:
            expected.extend(
                (name, line, rule)
                for line, rule in marked_lines(FIXTURES / name)
            )
        expected.append(("stale.py", 7, "LINT-STALE"))
        assert got == sorted(expected)
        assert len(result.files) == len(GOLDEN + CLEAN) + 2
