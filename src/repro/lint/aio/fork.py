"""Fork/worker hygiene for the process-parallel layers.

``campaign.sched`` and ``campaign.runner`` fan out with
``multiprocessing.get_context("fork")``.  Fork inherits the parent's
entire address space, so two classes of bugs stay invisible until a
worker wedges in production:

* **FORK-CAPTURE** (error) -- a live OS resource (socket, asyncio loop
  primitive, thread object, open file) smuggled into a worker through
  ``Process(target=..., args=(...))``.  The child inherits a duplicated
  fd or a loop bound to the parent's thread; either is undefined
  behaviour.  Payloads must be plain data -- in this repo, the types the
  explore wire codec (``repro.explore.wire``) declares, plus the
  ``multiprocessing`` primitives built for crossing (queues, pipes).
* **FORK-ENTRY** (warning) -- a worker entry function whose reachable
  call graph touches ``asyncio``/``socket``/``threading`` APIs.  Worker
  entries are expected to speak wire-codec data over the queues/pipes
  they were handed, not to resurrect event loops or sockets inherited
  from the parent snapshot.

Both checks resolve ``Process`` through import aliases and through
locals bound from ``multiprocessing.get_context(...)``, and look up
argument provenance in local assignments and ``self.*`` field
constructor sources.
"""

from __future__ import annotations

import ast

from repro.lint.aio.model import FuncModel, ModuleModel, PackageModel
from repro.lint.findings import Finding, Severity
from repro.lint.inference import dotted_chain

#: constructor roots whose values must never cross a fork boundary
_LIVE_ROOTS = frozenset({"socket", "asyncio", "threading"})


def _local_call_sources(
    module: ModuleModel, fn: FuncModel
) -> dict[str, tuple[str, ...]]:
    """name -> resolved chain of the call its local was assigned from."""
    sources: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Call
        ):
            continue
        chain = module.resolve_chain(dotted_chain(node.value.func))
        if not chain:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                sources.setdefault(target.id, chain)
    return sources


def _is_process_call(
    module: ModuleModel,
    call: ast.Call,
    local_sources: dict[str, tuple[str, ...]],
) -> bool:
    chain = dotted_chain(call.func)
    if not chain or chain[-1] != "Process":
        return False
    resolved = module.resolve_chain(chain)
    if resolved[0] == "multiprocessing":
        return True
    return local_sources.get(chain[0]) == ("multiprocessing", "get_context")


def _live_reason(
    module: ModuleModel,
    fn: FuncModel,
    expr: ast.expr,
    local_sources: dict[str, tuple[str, ...]],
) -> str | None:
    """Why this Process payload element holds a live resource, if it does."""

    def classify(chain: tuple[str, ...]) -> str | None:
        if not chain:
            return None
        if chain[0] in _LIVE_ROOTS:
            return ".".join(c for c in chain if c != "()")
        if chain == ("open",):
            return "open file"
        return None

    if isinstance(expr, ast.Name):
        src = local_sources.get(expr.id)
        if src is not None:
            return classify(src)
        return None
    if isinstance(expr, ast.Call):
        return classify(module.resolve_chain(dotted_chain(expr.func)))
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and fn.class_name is not None
    ):
        cls = module.classes.get(fn.class_name)
        if cls is not None:
            return classify(cls.field_sources.get(expr.attr, ()))
    return None


def _entry_offenses(
    package: PackageModel, module: ModuleModel, entry: FuncModel
) -> list[str]:
    """asyncio/socket/threading calls in the worker entry's reach."""
    offenses: list[str] = []
    for fn in package.reach(module, entry):
        fn_module = package.module_of(fn) or module
        for site in fn.calls:
            resolved = fn_module.resolve_chain(site.chain)
            if resolved and resolved[0] in _LIVE_ROOTS:
                offenses.append(
                    f"{fn.qualname}:{site.line} calls "
                    f"{'.'.join(c for c in resolved if c != '()')}"
                )
    return offenses


def fork_findings(package: PackageModel) -> list[Finding]:
    findings: list[Finding] = []
    for module in package.modules.values():
        for fn in module.functions.values():
            local_sources = _local_call_sources(module, fn)
            for site in fn.calls:
                if not _is_process_call(module, site.node, local_sources):
                    continue
                payload: list[ast.expr] = []
                target_expr: ast.expr | None = None
                for kw in site.node.keywords:
                    if kw.arg == "args" and isinstance(
                        kw.value, (ast.Tuple, ast.List)
                    ):
                        payload.extend(kw.value.elts)
                    elif kw.arg == "target":
                        target_expr = kw.value
                for elt in payload:
                    reason = _live_reason(module, fn, elt, local_sources)
                    if reason is None:
                        continue
                    findings.append(
                        Finding(
                            path=fn.path,
                            line=site.line,
                            col=site.col,
                            rule="FORK-CAPTURE",
                            severity=Severity.ERROR,
                            message=(
                                f"live resource ({reason}) captured in "
                                "Process(args=...); fork duplicates the fd/"
                                "loop into the child -- pass plain wire-codec "
                                "data or multiprocessing primitives instead"
                            ),
                            function=fn.qualname,
                        )
                    )
                if target_expr is None:
                    continue
                callee_chain = dotted_chain(target_expr)
                entry = package.resolve_chain_call(module, fn, callee_chain)
                if entry is None:
                    continue
                offenses = _entry_offenses(package, module, entry)
                if offenses:
                    findings.append(
                        Finding(
                            path=fn.path,
                            line=site.line,
                            col=site.col,
                            rule="FORK-ENTRY",
                            severity=Severity.WARNING,
                            message=(
                                f"worker entry {entry.qualname!r} reaches "
                                "live-resource APIs: "
                                + "; ".join(offenses[:3])
                                + " -- worker entries should only touch "
                                "wire-codec data and the queues/pipes "
                                "they were handed"
                            ),
                            function=fn.qualname,
                        )
                    )
    return findings


__all__ = ["fork_findings"]
