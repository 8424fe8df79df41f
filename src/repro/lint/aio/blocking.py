"""AIO-BLOCK: synchronous blocking calls reachable from the event loop.

A blocking syscall on the loop's thread stalls the *whole* event loop: the
wrapper ticks stop, heartbeats miss, and the live monitor's timing story
degrades for every node in the process.  What runs on the loop is every
``async def`` and every plain function the loop calls back: the
``asyncio.Protocol`` methods (``connection_made``, ``data_received``,
``eof_received``, ``connection_lost``; in a subclass of a package
protocol class, also the overrides of that class's methods, which its
callbacks dispatch to) and whatever is handed to ``call_soon`` /
``call_later`` / ``call_at``.  The live service's hot path is exactly
such callbacks.  This detector knows a curated set of blocking entry
points --

* ``time.sleep``
* synchronous ``socket`` construction/resolution
* ``subprocess`` spawns and ``os.system``-style process waits
* synchronous HTTP (``urllib.request.urlopen``, ``requests.*``)
* file IO: builtin ``open``/``input`` and ``Path(...).open/read_*/write_*``

-- and propagates them *interprocedurally*: a sync helper that opens a
file is itself blocking, and every coroutine or loop callback that can
reach it through resolvable module/package-local calls is flagged at the
call site, with the call path in the message.  Calls only *referenced* (handed
to ``run_in_executor`` / ``to_thread`` uncalled) never match, so the
standard offloading idioms are clean by construction.
"""

from __future__ import annotations

from repro.lint.aio.model import (
    CallSite,
    ClassModel,
    FuncModel,
    ModuleModel,
    PackageModel,
)
from repro.lint.aio.races import module_roots
from repro.lint.findings import Finding, Severity

#: the asyncio base classes whose methods the event loop calls
_PROTOCOL_BASES = frozenset(
    {
        "BaseProtocol",
        "Protocol",
        "BufferedProtocol",
        "DatagramProtocol",
        "SubprocessProtocol",
    }
)
_PROTOCOL_CALLBACKS = frozenset(
    {"connection_made", "data_received", "eof_received", "connection_lost"}
)

_SOCKET_CALLS = frozenset(
    {
        "socket",
        "create_connection",
        "create_server",
        "socketpair",
        "getaddrinfo",
        "gethostbyname",
        "gethostbyaddr",
    }
)
_SUBPROCESS_CALLS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)
_OS_CALLS = frozenset({"system", "popen", "wait", "waitpid"})
_PATH_IO = frozenset(
    {
        "open",
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
    }
)


def blocking_label(
    module: ModuleModel, fn: FuncModel, site: CallSite
) -> str | None:
    """The blocking entry point a call site hits directly, if any."""
    chain = site.chain
    if not chain:
        return None
    resolved = module.resolve_chain(chain)
    if "()" in resolved:
        # method on a constructor result: Path(...).open / .read_text / ...
        j = resolved.index("()")
        base, tail = resolved[:j], resolved[j + 1 :]
        if (
            base
            and base[-1] == "Path"
            and len(tail) == 1
            and tail[0] in _PATH_IO
        ):
            return f"Path().{tail[0]}"
        return None
    if resolved in (("time", "sleep"),):
        return "time.sleep"
    root, tail = resolved[0], resolved[-1]
    if root == "socket" and len(resolved) == 2 and tail in _SOCKET_CALLS:
        return f"socket.{tail}"
    if root == "subprocess" and len(resolved) == 2 and tail in _SUBPROCESS_CALLS:
        return f"subprocess.{tail}"
    if root == "os" and len(resolved) == 2 and tail in _OS_CALLS:
        return f"os.{tail}"
    if root == "requests" and len(resolved) == 2:
        return f"requests.{tail}"
    if resolved == ("urllib", "request", "urlopen"):
        return "urllib.request.urlopen"
    if resolved in (("open",), ("input",)):
        name = resolved[0]
        shadowed = (
            name in fn.local_names
            or name in module.functions
            or name in module.imports
        )
        if not shadowed:
            return f"builtin {name}"
    return None


def _nearest_blocking(
    package: PackageModel,
    module: ModuleModel,
    fn: FuncModel,
    memo: dict,
    stack: frozenset = frozenset(),
) -> list[str] | None:
    """Shortest known call path from ``fn`` to a blocking entry point."""
    if id(fn) in memo:
        return memo[id(fn)]
    if id(fn) in stack:
        return None
    best: list[str] | None = None
    for site in fn.calls:
        label = blocking_label(module, fn, site)
        if label is not None:
            best = [label]
            break
        callee = package.resolve_call(module, fn, site)
        if callee is None or callee.is_async:
            continue
        callee_module = package.module_of(callee) or module
        sub = _nearest_blocking(
            package, callee_module, callee, memo, stack | {id(fn)}
        )
        if sub is not None and (best is None or len(sub) + 1 < len(best)):
            best = [callee.qualname] + sub
    memo[id(fn)] = best
    return best


def _protocol_ancestors(
    package: PackageModel, module: ModuleModel, cls: ClassModel
) -> list[ClassModel] | None:
    """The package classes ``cls`` inherits from, when the chain ends in an
    asyncio protocol base; ``None`` when ``cls`` is not a protocol."""
    for base in cls.bases:
        resolved = module.resolve_chain(base)
        if (
            len(resolved) == 2
            and resolved[0] == "asyncio"
            and resolved[1] in _PROTOCOL_BASES
        ):
            return []
        found = package.resolve_class(module, base)
        if found is not None and found[1] is not cls:
            above = _protocol_ancestors(package, *found)
            if above is not None:
                return [found[1]] + above
    return None


def loop_roots(package: PackageModel, module: ModuleModel) -> list[FuncModel]:
    """Every function of ``module`` the event loop runs directly."""
    roots = {
        fn.qualname: fn for fn in module.functions.values() if fn.is_async
    }
    for qualname, info in module_roots(module).items():
        if "callback" in info.kinds:
            roots[qualname] = info.func
    for cls in module.classes.values():
        ancestors = _protocol_ancestors(package, module, cls)
        if ancestors is None:
            continue
        dispatched = _PROTOCOL_CALLBACKS.union(
            *(ancestor.methods for ancestor in ancestors)
        )
        for name, method in cls.methods.items():
            if name in dispatched and not name.startswith("__"):
                roots[method.qualname] = method
    return list(roots.values())


def blocking_findings(package: PackageModel) -> list[Finding]:
    findings: list[Finding] = []
    memo: dict = {}
    for module in package.modules.values():
        for fn in loop_roots(package, module):
            for site in fn.calls:
                label = blocking_label(module, fn, site)
                path: list[str] | None
                if label is not None:
                    path = [label]
                else:
                    callee = package.resolve_call(module, fn, site)
                    if callee is None or callee.is_async:
                        continue
                    callee_module = package.module_of(callee) or module
                    sub = _nearest_blocking(
                        package, callee_module, callee, memo
                    )
                    path = [callee.qualname] + sub if sub is not None else None
                if path is None:
                    continue
                via = " -> ".join([fn.qualname] + path)
                root_kind = "async def" if fn.is_async else "a loop callback"
                findings.append(
                    Finding(
                        path=fn.path,
                        line=site.line,
                        col=site.col,
                        rule="AIO-BLOCK",
                        severity=Severity.ERROR,
                        message=(
                            f"blocking call reachable from {root_kind}: {via}; "
                            "this stalls the event loop for every node in "
                            "the process -- await an async equivalent or "
                            "offload via run_in_executor"
                        ),
                        function=fn.qualname,
                    )
                )
    return findings


__all__ = ["blocking_findings", "blocking_label", "loop_roots"]
