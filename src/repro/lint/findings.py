"""Lint findings: rule identities, severities, locations, suppressions.

A :class:`Finding` is one diagnosed violation of a paper contract, anchored
to a source location (file, line, column) so editors and CI logs can jump
to the definition site.  Findings can be silenced *at that site* with a
justification comment::

    deferred = view.deferred          # repro: lint-ok[DET-ORDER] sorted below

A bare ``# repro: lint-ok`` suppresses every rule on that line; the
bracketed form suppresses only the named rules (comma-separated).  The
suppression is honoured where the finding points, or on the function's
``def`` line to silence a rule for the whole function.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache


class Severity(IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str
    function: str = ""
    action: str = ""

    def render(self) -> str:
        """``path:line:col: severity RULE message  [action]``."""
        where = f"{self.path}:{self.line}:{self.col}"
        ctx = f"  (action {self.action!r})" if self.action else ""
        return f"{where}: {self.severity.label} [{self.rule}] {self.message}{ctx}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
            "function": self.function,
            "action": self.action,
        }


_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok(?:\[(?P<rules>[A-Z0-9_,\- ]+)\])?"
)


@lru_cache(maxsize=256)
def _file_lines(path: str) -> tuple[str, ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            return tuple(fh.read().splitlines())
    except OSError:
        return ()


def suppressed_rules(path: str, line: int) -> frozenset[str] | None:
    """The rules suppressed on ``line`` of ``path``.

    Returns ``None`` when there is no suppression comment, the empty
    frozenset for a bare ``lint-ok`` (suppress everything), or the named
    rule set for the bracketed form.
    """
    lines = _file_lines(path)
    if not 1 <= line <= len(lines):
        return None
    match = _SUPPRESS_RE.search(lines[line - 1])
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


def iter_suppressions(path: str) -> list[tuple[int, frozenset[str]]]:
    """Every suppression comment in ``path``: ``(line, rules)`` pairs.

    ``rules`` is empty for the bare ``lint-ok`` form (suppress everything)
    and the named rule set for the bracketed form.
    """
    out: list[tuple[int, frozenset[str]]] = []
    for lineno, _ in enumerate(_file_lines(path), start=1):
        rules = suppressed_rules(path, lineno)
        if rules is not None:
            out.append((lineno, rules))
    return out


def stale_suppressions(
    paths: Iterable[str],
    findings: Iterable[Finding],
    def_lines: dict[tuple[str, str], int] | None = None,
    rules_in_force: frozenset[str] | None = None,
) -> list[Finding]:
    """Suppression comments whose rule no longer fires: rot detectors.

    A ``# repro: lint-ok[RULE]`` earns its keep only while RULE actually
    fires on that line (or on a function whose ``def`` line it sits on).
    Given the *pre-suppression* findings of a run, every comment that
    matched nothing becomes a LINT-STALE warning -- an error under
    ``--strict`` -- so silenced rules cannot outlive the code they
    excused.  Named rules outside ``rules_in_force`` (rules this run did
    not evaluate) are left alone rather than guessed at.
    """
    def_lines = def_lines or {}
    covered: set[tuple[str, int, str]] = set()
    for finding in findings:
        covered.add((finding.path, finding.line, finding.rule))
        if finding.function:
            def_line = def_lines.get((finding.path, finding.function))
            if def_line is not None:
                covered.add((finding.path, def_line, finding.rule))
    out: list[Finding] = []
    for path in paths:
        for line, rules in iter_suppressions(path):
            fired_here = {r for (p, ln, r) in covered if p == path and ln == line}
            if not rules:
                if not fired_here:
                    out.append(
                        Finding(
                            path=path,
                            line=line,
                            col=0,
                            rule="LINT-STALE",
                            severity=Severity.WARNING,
                            message=(
                                "stale suppression: bare '# repro: lint-ok' "
                                "matches no finding on this line; delete it "
                                "or name the rule it should silence"
                            ),
                        )
                    )
                continue
            for rule in sorted(rules):
                if rules_in_force is not None and rule not in rules_in_force:
                    continue
                if rule not in fired_here:
                    out.append(
                        Finding(
                            path=path,
                            line=line,
                            col=0,
                            rule="LINT-STALE",
                            severity=Severity.WARNING,
                            message=(
                                f"stale suppression: lint-ok[{rule}] but "
                                f"{rule} no longer fires on this line; "
                                "delete the comment so real findings "
                                "cannot hide behind it"
                            ),
                        )
                    )
    return out


def is_suppressed(finding: Finding, def_line: int | None = None) -> bool:
    """Is ``finding`` silenced at its own line or the function header?"""
    for line in {finding.line, def_line or finding.line}:
        rules = suppressed_rules(finding.path, line)
        if rules is not None and (not rules or finding.rule in rules):
            return True
    return False


@dataclass
class LintReport:
    """The outcome of one lint run: findings plus what was proven."""

    findings: list[Finding] = field(default_factory=list)
    checked_actions: int = 0
    checked_programs: int = 0
    checked_files: int = 0
    proofs: list[dict] = field(default_factory=list)
    cross_checks: list[dict] = field(default_factory=list)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def unique_findings(self) -> list[Finding]:
        """Deduplicated, location-sorted findings (one action's helpers can
        be reached from several programs)."""
        return sorted(set(self.findings))

    def worst(self) -> Severity | None:
        return max((f.severity for f in self.findings), default=None)

    def counts(self) -> dict[str, int]:
        out = {s.label: 0 for s in Severity}
        for f in self.unique_findings():
            out[f.severity.label] += 1
        return out

    def exit_code(self, strict: bool = False) -> int:
        """0 clean; 1 on any error (or any warning under ``--strict``)."""
        threshold = Severity.WARNING if strict else Severity.ERROR
        worst = self.worst()
        return 1 if worst is not None and worst >= threshold else 0

    def render_text(self) -> str:
        lines: list[str] = []
        for f in self.unique_findings():
            lines.append(f.render())
        counts = self.counts()
        scanned = (
            f", {self.checked_files} files scanned" if self.checked_files else ""
        )
        lines.append(
            f"lint: {self.checked_programs} programs, "
            f"{self.checked_actions} actions checked{scanned} -- "
            f"{counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} notes"
        )
        for proof in self.proofs:
            status = "PROVEN" if proof["proven"] else "NOT PROVEN"
            lines.append(
                f"non-interference [{proof['program']}]: {status} "
                f"(wrapper writes {sorted(proof['wrapper_writes'])}, "
                f"interface reads {sorted(proof['interface_reads'])})"
            )
        for check in self.cross_checks:
            status = "OK" if check["contained"] else "VIOLATED"
            # An empty observation satisfies any containment: show its size.
            seen = f"{check['actions_observed']} actions observed"
            for what in ("reads", "writes"):
                if f"{what}_observed" in check:
                    seen += f", {check[f'{what}_observed']} distinct {what}"
            lines.append(
                f"dynamic cross-check [{check['program']}]: {status} "
                f"({check['steps']} steps, {seen})"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.unique_findings()],
            "counts": self.counts(),
            "checked_actions": self.checked_actions,
            "checked_programs": self.checked_programs,
            "checked_files": self.checked_files,
            "proofs": self.proofs,
            "cross_checks": self.cross_checks,
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
