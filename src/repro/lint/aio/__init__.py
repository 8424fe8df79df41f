"""repro.lint.aio: static analysis that understands concurrent Python.

PR 4's ``repro.lint`` proves the paper's action contracts for the DSL
layer by abstract interpretation of live action objects.  The layers the
production story now rests on -- the live asyncio lock service, the
forked campaign runner, the journalled explorer, the recovery ladder -- are
ordinary module code with three extra failure axes the DSL never had:
event-loop concurrency, blocking syscalls, and fork inheritance.  This
subpackage lints whole packages *without importing their closures*, via
four analyzer families:

========================  ======  =============================================
rule                      level   meaning
========================  ======  =============================================
AIO-RACE                  error   field read before an await, reassigned after
                                  it, while a concurrently scheduled task also
                                  touches it (asyncio lost-update)
AIO-BLOCK                 error   blocking syscall (sleep/socket/subprocess/
                                  file IO) reachable from ``async def`` or from
                                  a loop callback (Protocol method, call_soon/
                                  call_later/call_at target)
DET-WALLCLOCK             error   ``time.time``/``datetime.now`` -- traces must
                                  revalidate identically on any machine
DET-GLOBALRNG             error   module-level ``random.<fn>()`` draw
DET-UNSEEDED              error   ``random.Random()`` with no seed
REPLAY-ESCAPE             error   nondeterministic value reaching recorded
                                  trace/decision state outside the recorder
FORK-CAPTURE              error   live socket/loop/thread in Process(args=...)
FORK-ENTRY                warn    worker entry reaches asyncio/socket/threading
LINT-STALE                warn    suppression comment whose rule no longer fires
========================  ======  =============================================

All findings flow through the shared :class:`~repro.lint.findings.Finding`
pipeline: ``# repro: lint-ok[RULE]`` suppresses at the finding line or the
enclosing ``def`` line, ``--strict`` turns warnings into failures, and
stale suppressions are themselves findings so justifications cannot rot.
Entry points: :func:`lint_package` (one package or fixture directory) and
:func:`~repro.lint.aio.dynamic.cross_check_service` (instrumented live
run asserting observed mutations/concurrency stay inside the inference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.aio.blocking import blocking_findings
from repro.lint.aio.determinism import det_findings, replay_escape_findings
from repro.lint.aio.fork import fork_findings
from repro.lint.aio.model import (
    ModuleModel,
    PackageModel,
    build_module_model,
    build_package_model,
    package_files,
)
from repro.lint.aio.races import race_findings
from repro.lint.findings import Finding

#: rules this package-level pass evaluates (LINT-STALE judges only these)
PACKAGE_RULES = frozenset(
    {
        "AIO-RACE",
        "AIO-BLOCK",
        "DET-WALLCLOCK",
        "DET-GLOBALRNG",
        "DET-UNSEEDED",
        "REPLAY-ESCAPE",
        "FORK-CAPTURE",
        "FORK-ENTRY",
        "LINT-STALE",
    }
)

#: the packages ``repro lint --all`` covers: every layer the replay and
#: revalidation guarantees depend on outside the DSL itself
DEFAULT_PACKAGES = (
    "repro.service",
    "repro.campaign",
    "repro.explore",
    "repro.recovery",
)


@dataclass
class PackageLintResult:
    """One package's lint outcome: files scanned and surviving findings."""

    package: str
    files: list[str] = field(default_factory=list)
    #: post-suppression findings, stale-suppression warnings included
    findings: list[Finding] = field(default_factory=list)
    #: every finding before suppression filtering (for harnesses/tests)
    raw_findings: list[Finding] = field(default_factory=list)


def lint_package(target: str) -> PackageLintResult:
    """Lint one package (dotted name) or directory/file of modules.

    Builds AST models for every module, runs all four analyzer families,
    honours ``lint-ok`` suppressions at finding and ``def`` lines, and
    appends a LINT-STALE warning for every suppression that silenced
    nothing.
    """
    from repro.lint.findings import stale_suppressions
    from repro.lint.rules import filter_suppressed

    package = build_package_model(target)
    findings: list[Finding] = []
    findings.extend(race_findings(package))
    findings.extend(blocking_findings(package))
    findings.extend(fork_findings(package))
    for module in package.modules.values():
        findings.extend(det_findings(module))
        findings.extend(replay_escape_findings(module))

    def_lines: dict[tuple[str, str], int] = {}
    for module in package.modules.values():
        for fn in module.functions.values():
            def_lines[(fn.path, fn.qualname)] = fn.line

    paths = [module.path for module in package.modules.values()]
    active = filter_suppressed(findings, def_lines)
    stale = stale_suppressions(
        paths, findings, def_lines, rules_in_force=PACKAGE_RULES
    )
    return PackageLintResult(
        package=package.name,
        files=paths,
        findings=sorted(set(active) | set(stale)),
        raw_findings=sorted(set(findings)),
    )


__all__ = [
    "DEFAULT_PACKAGES",
    "PACKAGE_RULES",
    "ModuleModel",
    "PackageLintResult",
    "PackageModel",
    "build_module_model",
    "build_package_model",
    "lint_package",
    "package_files",
]
