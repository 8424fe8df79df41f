"""The lint driver: resolve targets, lint programs, assemble the report.

A *target* names a set of :class:`~repro.dsl.program.ProcessProgram`\\ s to
verify:

* ``tme`` (or the package path ``src/repro/tme``) -- the built-in catalog:
  all four TME implementations plus their graybox wrappers, the
  non-interference proofs for each pairing, and (with ``dynamic=True``)
  the instrumented cross-check runs;
* ``some.module`` or ``path/to/file.py`` -- every module-level
  :class:`ProcessProgram` (or the explicit ``LINT_PROGRAMS`` hook);
* ``some.module:factory`` -- one attribute: a program, a mapping/iterable
  of programs, or a zero-argument callable returning either.

Programs are linted from their *live* action objects -- closures and all --
because that is what actually executes; a file-level lint would miss the
captured configuration the paper's wrappers are built from.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections.abc import Iterable, Mapping
from pathlib import Path
from types import ModuleType

from repro.dsl.program import ProcessProgram
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.inference import ActionAnalysis, Engine, analyze_action
from repro.lint.interference import tme_interference_proof
from repro.lint.rules import (
    action_findings,
    filter_suppressed,
    program_findings,
)

#: Algorithms covered by the ``tme`` catalog (mirrors scenarios.ALGORITHMS,
#: imported lazily to keep the lint importable without the TME package).
TME_ALGORITHMS = ("ra", "ra-count", "lamport", "token")


# ---------------------------------------------------------------------------
# target resolution
# ---------------------------------------------------------------------------


def is_tme_target(target: str) -> bool:
    """Does ``target`` name the built-in TME catalog?"""
    if target in ("tme", "repro.tme"):
        return True
    path = Path(target)
    return path.name == "tme" and "repro" in path.parts


def _load_module(spec: str) -> ModuleType:
    if spec.endswith(".py") or "/" in spec:
        path = Path(spec)
        module_spec = importlib.util.spec_from_file_location(path.stem, path)
        if module_spec is None or module_spec.loader is None:
            raise ValueError(f"cannot load lint target {spec!r}")
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module
    try:
        return importlib.import_module(spec)
    except ImportError as exc:
        raise ValueError(f"cannot import lint target {spec!r}: {exc}") from exc


def _programs_from(value: object) -> list[ProcessProgram]:
    if isinstance(value, ProcessProgram):
        return [value]
    if isinstance(value, Mapping):
        return [p for p in value.values() if isinstance(p, ProcessProgram)]
    if isinstance(value, (list, tuple)):
        out: list[ProcessProgram] = []
        for item in value:
            out.extend(_programs_from(item))
        return out
    if callable(value):
        return _programs_from(value())
    return []


def collect_programs(target: str) -> list[ProcessProgram]:
    """Resolve one module/file target into its programs."""
    spec, _, attr = target.partition(":")
    module = _load_module(spec)
    if attr:
        if not hasattr(module, attr):
            raise ValueError(f"{spec!r} has no attribute {attr!r}")
        programs = _programs_from(getattr(module, attr))
    elif hasattr(module, "LINT_PROGRAMS"):
        programs = _programs_from(module.LINT_PROGRAMS)
    else:
        programs = [
            value
            for value in vars(module).values()
            if isinstance(value, ProcessProgram)
        ]
    if not programs:
        raise ValueError(f"lint target {target!r} yields no programs")
    return programs


def tme_catalog(n: int = 3, theta: int = 4) -> list[ProcessProgram]:
    """The built-in catalog: each implementation plus its graybox wrapper."""
    from repro.tme.interfaces import adapter_for
    from repro.tme.scenarios import tme_programs
    from repro.tme.wrapper import WrapperConfig, wrapper_program

    config = WrapperConfig(theta=theta)
    programs: list[ProcessProgram] = []
    for algorithm in TME_ALGORITHMS:
        system = tme_programs(algorithm, n)
        pid = sorted(system)[0]
        implementation = system[pid]
        programs.append(implementation)
        programs.append(
            wrapper_program(
                pid,
                tuple(sorted(system)),
                adapter_for(implementation.name),
                config,
            )
        )
    return programs


# ---------------------------------------------------------------------------
# linting
# ---------------------------------------------------------------------------


def lint_program(
    program: ProcessProgram,
    engine: Engine,
    report: LintReport,
) -> list[ActionAnalysis]:
    """Lint one program's actions into ``report``; returns the analyses."""
    analyses: list[ActionAnalysis] = []
    findings: list[Finding] = []
    def_lines: dict[tuple[str, str], int] = {}
    for action in program.actions + program.receive_actions:
        analysis = analyze_action(action, engine)
        analyses.append(analysis)
        report.checked_actions += 1
        findings.extend(action_findings(analysis))
        for info in analysis.visited_infos():
            def_lines[(info.path, info.name)] = info.line
    findings.extend(
        program_findings(
            analyses, frozenset(program.initial_vars), program.name
        )
    )
    report.checked_programs += 1
    report.extend(filter_suppressed(findings, def_lines))
    return analyses


def _dynamic_finding(
    rule: str, severity: Severity, message: str, action: str = ""
) -> Finding:
    """A finding of a cross-check: about a run, not a source location."""
    return Finding(
        path="<dynamic-cross-check>",
        line=0,
        col=0,
        rule=rule,
        severity=severity,
        message=message,
        action=action,
    )


def run_lint(
    targets: Iterable[str] = (),
    n: int = 3,
    theta: int = 4,
    dynamic: bool = False,
    steps: int = 300,
    seed: int = 0,
    engine: Engine | None = None,
    packages: Iterable[str] = (),
) -> LintReport:
    """Lint every target; TME targets also get proofs and cross-checks.

    ``targets`` select DSL programs (the original pass); ``packages``
    select the asyncio pass over whole packages (``repro.lint.aio``).
    With neither given, the TME catalog is linted, as before.
    """
    engine = engine or Engine()
    report = LintReport()
    targets = tuple(targets)
    packages = tuple(packages)
    if not targets and not packages:
        targets = ("tme",)

    want_tme = any(is_tme_target(t) for t in targets)
    programs: list[ProcessProgram] = []
    if want_tme:
        programs.extend(tme_catalog(n=n, theta=theta))
    for target in targets:
        if not is_tme_target(target):
            programs.extend(collect_programs(target))

    for program in programs:
        lint_program(program, engine, report)

    if want_tme:
        for algorithm in TME_ALGORITHMS:
            proof = tme_interference_proof(
                algorithm, n=n, theta=theta, engine=engine
            )
            report.proofs.append(proof.as_dict())
            report.extend(filter_suppressed(proof.findings))
        if dynamic:
            from repro.lint.dynamic import cross_check

            for algorithm in TME_ALGORITHMS:
                result = cross_check(
                    algorithm,
                    n=n,
                    steps=steps,
                    seed=seed,
                    theta=theta,
                    engine=engine,
                )
                report.cross_checks.append(result)
                for name in result["violations"]:
                    report.findings.append(
                        _dynamic_finding(
                            "DYN-CONTAIN",
                            Severity.ERROR,
                            f"observed access set of action {name!r} in "
                            f"{result['program']} escapes the inferred "
                            "static sets; the inference is unsound for "
                            "this action",
                            action=name,
                        )
                    )
                for name in result["blind"]:
                    report.findings.append(
                        _dynamic_finding(
                            "DYN-BLIND",
                            Severity.WARNING,
                            f"action {name!r} in {result['program']} ran "
                            "but no read of it was recorded, although it "
                            "is inferred to read; the recorder is blind "
                            "there and containment proves nothing",
                            action=name,
                        )
                    )

    for package_name in packages:
        from repro.lint.aio import lint_package

        result = lint_package(package_name)
        report.checked_files += len(result.files)
        report.extend(result.findings)
    if dynamic and any(p.split("/")[-1] in ("repro.service", "service") for p in packages):
        from repro.lint.aio.dynamic import cross_check_service

        result = cross_check_service(n=n, ops=3)
        report.cross_checks.append(result)
        for reason in result["violations"]:
            report.findings.append(
                _dynamic_finding(
                    "DYN-CONTAIN",
                    Severity.ERROR,
                    f"asyncio cross-check of {result['program']}: "
                    f"{reason}; the concurrency inference is unsound "
                    "for this run",
                )
            )
    return report


__all__ = [
    "TME_ALGORITHMS",
    "collect_programs",
    "is_tme_target",
    "lint_program",
    "run_lint",
    "tme_catalog",
]
