"""Module/package AST models for the async-aware lint pass.

PR 4's ``repro.lint`` analyzes *live* action objects (closures included)
because the DSL builds programs from captured configuration.  The layers
this pass guards -- the asyncio service, the forked campaign runner, the
journalled explorer -- are ordinary module code, so here we model whole
files without importing them: every function's ordered stream of field
accesses, await points, calls, and task-spawn sites, plus per-class and
per-module symbol tables with import-alias resolution.

The model is deliberately *syntactic*: ``self.f`` accesses and
module-global names are tracked; aliased objects (``h = self.f; h.x = 1``)
are not.  Analyzers over-approximate where it is cheap (loop bodies that
contain an await are unrolled twice so cross-iteration interleavings are
visible) and under-approximate where tracking would drown the report in
noise; each analyzer documents its blind spots.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.inference import MUTATORS, dotted_chain

#: asyncio constructors whose instances exist to mediate concurrency;
#: fields holding one are excluded from the shared-state race analysis.
_SYNC_PRIMITIVES = frozenset(
    {
        "Event",
        "Lock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Queue",
        "LifoQueue",
        "PriorityQueue",
        "Barrier",
    }
)

_MAX_REACH_DEPTH = 24


@dataclass(frozen=True)
class Access:
    """One field access, global access, or await point, in program order."""

    kind: str  # "read" | "assign" | "mutate" | "await"
    key: tuple | None  # ("attr", class, field) | ("global", module, name)
    line: int
    col: int
    func: str  # qualname of the function the access occurs in
    path: str  # file the access occurs in (streams inline across modules)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    chain: tuple[str, ...]  # raw dotted chain, () when not name-rooted
    node: ast.Call
    func: str  # qualname of the enclosing function


@dataclass
class SpawnSite:
    """One place a coroutine or callback is handed to the event loop."""

    line: int
    kind: str  # create_task | ensure_future | gather | server | callback
    callee: tuple[str, ...] | None  # ("self", "m") or ("f",), unresolved
    in_loop: bool  # spawned inside a loop/comprehension


@dataclass
class FuncModel:
    """One function or method: its access stream and outgoing calls."""

    name: str
    qualname: str
    class_name: str | None
    is_async: bool
    path: str
    line: int
    node: ast.AST
    ops: list = field(default_factory=list)  # Access | CallSite, ordered
    spawns: list[SpawnSite] = field(default_factory=list)
    local_names: set[str] = field(default_factory=set)
    declared_globals: set[str] = field(default_factory=set)

    @property
    def calls(self) -> list[CallSite]:
        return [op for op in self.ops if isinstance(op, CallSite)]

    @property
    def accesses(self) -> list[Access]:
        return [op for op in self.ops if isinstance(op, Access)]


@dataclass
class ClassModel:
    """One class: methods plus what its ``self`` fields were built from."""

    name: str
    line: int
    #: raw dotted chains of the base-class expressions, in order
    bases: tuple[tuple[str, ...], ...] = ()
    methods: dict[str, FuncModel] = field(default_factory=dict)
    #: fields assigned from an asyncio synchronization primitive
    sync_fields: set[str] = field(default_factory=set)
    #: field -> resolved constructor chain of its first ``self.f = X()``
    field_sources: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """One parsed module: symbol tables plus every function model."""

    path: str
    name: str  # dotted module name
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FuncModel] = field(default_factory=dict)
    classes: dict[str, ClassModel] = field(default_factory=dict)
    module_globals: set[str] = field(default_factory=set)

    def resolve_chain(self, chain: tuple[str, ...]) -> tuple[str, ...]:
        """Rewrite the chain root through the module's import aliases."""
        if chain and chain[0] in self.imports:
            return tuple(self.imports[chain[0]].split(".")) + chain[1:]
        return chain


@dataclass
class PackageModel:
    """All modules of one analyzed package, with cross-module resolution."""

    name: str
    modules: dict[str, ModuleModel] = field(default_factory=dict)

    def _module_rests(self, dotted: str):
        """Every ``(module, remainder)`` reading of a dotted path.

        A directory target keys its modules by the directory name
        (``service.cluster``) while the sources import by absolute name
        (``repro.service.cluster``), so a module "matches" when the
        dotted path starts with it *or* contains it at a dot boundary.
        """
        for mod_name, module in self.modules.items():
            if dotted.startswith(mod_name + "."):
                yield module, dotted[len(mod_name) + 1 :]
            else:
                at = dotted.find("." + mod_name + ".")
                if at >= 0:
                    yield module, dotted[at + len(mod_name) + 2 :]

    def _lookup(self, dotted: str) -> FuncModel | None:
        """Resolve ``pkg.module.func`` / ``pkg.module.Class.method``."""
        for module, rest in self._module_rests(dotted):
            if rest in module.functions:
                return module.functions[rest]
            head, _, meth = rest.partition(".")
            cls = module.classes.get(head)
            if cls is not None and meth in cls.methods:
                return cls.methods[meth]
        return None

    def resolve_call(
        self, module: ModuleModel, caller: FuncModel, site: CallSite
    ) -> FuncModel | None:
        """The local/package function a call site targets, if knowable."""
        return self.resolve_chain_call(module, caller, site.chain)

    def resolve_chain_call(
        self,
        module: ModuleModel,
        caller: FuncModel,
        chain: tuple[str, ...],
    ) -> FuncModel | None:
        if not chain or "()" in chain:
            return None
        if chain[0] == "self" and len(chain) == 2:
            if caller.class_name is None:
                return None
            cls = module.classes.get(caller.class_name)
            if cls is not None:
                return cls.methods.get(chain[1])
            return None
        if len(chain) == 1:
            nested = module.functions.get(f"{caller.qualname}.{chain[0]}")
            if nested is not None:
                return nested
            target = module.functions.get(chain[0])
            if target is not None:
                return target
        if len(chain) == 2 and chain[0] in module.classes:
            return module.classes[chain[0]].methods.get(chain[1])
        resolved = module.resolve_chain(chain)
        return self._lookup(".".join(resolved))

    def resolve_class(
        self, module: ModuleModel, chain: tuple[str, ...]
    ) -> tuple[ModuleModel, ClassModel] | None:
        """The package class a base-class expression names, if knowable."""
        if len(chain) == 1 and chain[0] in module.classes:
            return module, module.classes[chain[0]]
        dotted = ".".join(module.resolve_chain(chain))
        for candidate, rest in self._module_rests(dotted):
            if rest in candidate.classes:
                return candidate, candidate.classes[rest]
        return None

    def reach(self, module: ModuleModel, root: FuncModel) -> list[FuncModel]:
        """Functions reachable from ``root`` via resolvable calls."""
        seen: dict[int, FuncModel] = {id(root): root}
        frontier = [(module, root, 0)]
        while frontier:
            mod, fn, depth = frontier.pop()
            if depth >= _MAX_REACH_DEPTH:
                continue
            for site in fn.calls:
                callee = self.resolve_call(mod, fn, site)
                if callee is None or id(callee) in seen:
                    continue
                seen[id(callee)] = callee
                callee_mod = self.module_of(callee)
                if callee_mod is not None:
                    frontier.append((callee_mod, callee, depth + 1))
        return list(seen.values())

    def module_of(self, fn: FuncModel) -> ModuleModel | None:
        for module in self.modules.values():
            if module.path == fn.path:
                return module
        return None


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def _contains_await(node: ast.AST) -> bool:
    """Does this subtree suspend, ignoring nested function bodies?"""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            return True
        if _contains_await(child):
            return True
    return False


_SPAWN_TAILS = {
    "create_task": "create_task",
    "ensure_future": "ensure_future",
    "gather": "gather",
    "start_server": "server",
    "start_unix_server": "server",
    "call_soon": "callback",
    "call_soon_threadsafe": "callback",
    "call_later": "callback",
    "call_at": "callback",
    "add_done_callback": "callback",
}


class _FuncWalker:
    """Builds one FuncModel's ordered op stream from its AST body."""

    def __init__(self, model: FuncModel, module: ModuleModel):
        self.model = model
        self.module = module
        self.loop_depth = 0

    # -- events -------------------------------------------------------------

    def _emit(self, kind: str, key: tuple | None, node: ast.AST) -> None:
        self.model.ops.append(
            Access(
                kind,
                key,
                node.lineno,
                node.col_offset,
                self.model.qualname,
                self.model.path,
            )
        )

    def _attr_key(self, attr: str) -> tuple:
        return ("attr", self.model.class_name or "", attr)

    def _global_key(self, name: str) -> tuple:
        return ("global", self.module.name, name)

    def _is_module_global(self, name: str) -> bool:
        return (
            name in self.module.module_globals
            and name not in self.model.local_names
        )

    # -- statements ---------------------------------------------------------

    def walk(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs get their own FuncModel
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Global):
            self.model.declared_globals.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._assign_target(target)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._assign_target(stmt.target)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            self._rmw_target(stmt.target)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._rmw_target(target)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self._assign_target(stmt.target)
            self._loop_body(stmt, stmt.body, is_async=isinstance(stmt, ast.AsyncFor))
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._loop_body(stmt, stmt.body, is_async=False)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars)
            if isinstance(stmt, ast.AsyncWith):
                self._emit("await", None, stmt)
            self.walk(stmt.body)
            if isinstance(stmt, ast.AsyncWith):
                self._emit("await", None, stmt)
            return
        if isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
            return
        if isinstance(stmt, (ast.Expr, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
            return
        # fall back: visit any expressions in evaluation-ish order
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child)

    def _loop_body(
        self, stmt: ast.stmt, body: list[ast.stmt], is_async: bool
    ) -> None:
        """Unroll await-carrying loop bodies twice so a value read in one
        iteration is visibly stale by the write of the next."""
        rounds = 2 if (is_async or _contains_await(stmt)) else 1
        self.loop_depth += 1
        try:
            for _ in range(rounds):
                if is_async:
                    self._emit("await", None, stmt)
                self.walk(body)
        finally:
            self.loop_depth -= 1

    # -- assignment targets -------------------------------------------------

    def _assign_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value)
            return
        if isinstance(target, ast.Name):
            if target.id in self.model.declared_globals:
                self._emit("assign", self._global_key(target.id), target)
            else:
                self.model.local_names.add(target.id)
            return
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                self._emit("assign", self._attr_key(target.attr), target)
            else:
                self._expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                self._expr(target.slice)
                self._emit("assign", self._attr_key(base.attr), target)
            elif (
                isinstance(base, ast.Name)
                and base.id in self.model.declared_globals
            ):
                self._expr(target.slice)
                self._emit("assign", self._global_key(base.id), target)
            else:
                self._expr(base)
                self._expr(target.slice)
            return
        self._expr(target)

    def _rmw_target(self, target: ast.expr) -> None:
        """AugAssign/Delete: an atomic read-modify-write at one point."""
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                key = self._attr_key(target.attr)
                self._emit("read", key, target)
                self._emit("mutate", key, target)
                return
            self._expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                key = self._attr_key(base.attr)
                self._expr(target.slice)
                self._emit("read", key, target)
                self._emit("mutate", key, target)
                return
            self._expr(base)
            self._expr(target.slice)
            return
        if isinstance(target, ast.Name):
            if target.id in self.model.declared_globals:
                key = self._global_key(target.id)
                self._emit("read", key, target)
                self._emit("mutate", key, target)
            return
        self._expr(target)

    # -- expressions --------------------------------------------------------

    def _expr(self, node: ast.expr | None) -> None:
        if node is None:
            return
        if isinstance(node, ast.Await):
            self._expr(node.value)
            self._emit("await", None, node)
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self._emit("read", self._attr_key(node.attr), node)
            else:
                self._expr(node.value)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and self._is_module_global(
                node.id
            ):
                self._emit("read", self._global_key(node.id), node)
            return
        if isinstance(node, ast.Lambda):
            self._expr(node.body)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            self.loop_depth += 1
            try:
                for gen in node.generators:
                    self._expr(gen.iter)
                    self._assign_target(gen.target)
                    for cond in gen.ifs:
                        self._expr(cond)
                if isinstance(node, ast.DictComp):
                    self._expr(node.key)
                    self._expr(node.value)
                else:
                    self._expr(node.elt)
            finally:
                self.loop_depth -= 1
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)

    def _call(self, node: ast.Call) -> None:
        chain = dotted_chain(node.func)
        handled_receiver = False
        if chain and chain[0] == "self" and "()" not in chain:
            if len(chain) >= 3 and chain[-1] in MUTATORS:
                # self.f.append(...) and friends mutate the field in place
                key = self._attr_key(chain[1])
                self._emit("read", key, node)
                self._emit("mutate", key, node)
                handled_receiver = True
            elif len(chain) > 2:
                self._emit("read", self._attr_key(chain[1]), node)
                handled_receiver = True
            elif len(chain) == 2:
                handled_receiver = True  # self.m(...) -> CallSite below
        elif (
            len(chain) == 2
            and chain[-1] in MUTATORS
            and self._is_module_global(chain[0])
        ):
            key = self._global_key(chain[0])
            self._emit("read", key, node)
            self._emit("mutate", key, node)
            handled_receiver = True
        if not chain and not handled_receiver:
            self._expr(node.func)
        for arg in node.args:
            self._expr(arg)
        for kw in node.keywords:
            self._expr(kw.value)
        self.model.ops.append(
            CallSite(
                node.lineno,
                node.col_offset,
                chain,
                node,
                self.model.qualname,
            )
        )
        self._spawn(node, chain)

    def _spawn(self, node: ast.Call, chain: tuple[str, ...]) -> None:
        if not chain or chain[-1] not in _SPAWN_TAILS:
            return
        kind = _SPAWN_TAILS[chain[-1]]
        in_loop = self.loop_depth > 0

        def callee_of(expr: ast.expr) -> tuple[str, ...] | None:
            if isinstance(expr, ast.Call):
                inner = dotted_chain(expr.func)
            else:
                inner = dotted_chain(expr)
            if not inner or "()" in inner:
                return None
            return inner

        if kind == "gather":
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    continue
                callee = callee_of(arg)
                if callee is not None:
                    self.model.spawns.append(
                        SpawnSite(node.lineno, kind, callee, in_loop)
                    )
            return
        arg_index = 1 if chain[-1] in ("call_later", "call_at") else 0
        if len(node.args) <= arg_index:
            return
        callee = callee_of(node.args[arg_index])
        self.model.spawns.append(SpawnSite(node.lineno, kind, callee, in_loop))


def _collect_imports(tree: ast.Module, module_name: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None and node.level == 0:
                continue
            base = node.module or ""
            if node.level:
                parent = module_name.rsplit(".", node.level)[0]
                base = f"{parent}.{base}" if base else parent
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}"
    return imports


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def build_module_model(path: Path, module_name: str) -> ModuleModel:
    """Parse one file into its module model (no imports are executed)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    model = ModuleModel(
        path=str(path),
        name=module_name,
        tree=tree,
        imports=_collect_imports(tree, module_name),
    )
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        model.module_globals.add(name_node.id)

    def add_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str | None,
    ) -> FuncModel:
        fn = FuncModel(
            name=node.name,
            qualname=qualname,
            class_name=class_name,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            path=str(path),
            line=node.lineno,
            node=node,
            local_names=_function_params(node),
        )
        walker = _FuncWalker(fn, model)
        walker.walk(node.body)
        model.functions[qualname] = fn
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not node
                and stmt.name not in model.functions
            ):
                # one level of nesting is enough for the spawn patterns used
                add_function(stmt, f"{qualname}.{stmt.name}", class_name)
        return fn

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassModel(
                name=stmt.name,
                line=stmt.lineno,
                bases=tuple(dotted_chain(base) for base in stmt.bases),
            )
            model.classes[stmt.name] = cls
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    cls.methods[item.name] = add_function(
                        item, qualname, stmt.name
                    )
            _collect_field_sources(model, cls)
    return model


def _collect_field_sources(model: ModuleModel, cls: ClassModel) -> None:
    """Record what each ``self.f = X()`` field was constructed from."""
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            chain = model.resolve_chain(dotted_chain(node.value.func))
            if not chain:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.field_sources.setdefault(target.attr, chain)
                    if chain[0] == "asyncio" and chain[-1] in _SYNC_PRIMITIVES:
                        cls.sync_fields.add(target.attr)


def package_files(target: str) -> tuple[str, list[tuple[Path, str]]]:
    """Resolve a dotted package name or filesystem path into its files.

    Returns ``(display_name, [(path, dotted_module_name), ...])``.  Dotted
    names resolve through ``importlib`` metadata without executing the
    package's modules; paths are taken as-is (a directory of fixture files
    lints the same way a real package does).
    """
    path = Path(target)
    if path.exists():
        if path.is_file():
            return path.stem, [(path, path.stem)]
        files = sorted(p for p in path.glob("*.py"))
        return path.name, [(p, f"{path.name}.{p.stem}") for p in files]
    spec = importlib.util.find_spec(target)
    if spec is None:
        raise ValueError(f"cannot locate lint package {target!r}")
    if spec.submodule_search_locations:
        root = Path(next(iter(spec.submodule_search_locations)))
        files = sorted(root.glob("*.py"))
        out = []
        for p in files:
            name = target if p.stem == "__init__" else f"{target}.{p.stem}"
            out.append((p, name))
        return target, out
    if spec.origin is None:
        raise ValueError(f"lint package {target!r} has no source files")
    return target, [(Path(spec.origin), target)]


def build_package_model(target: str) -> PackageModel:
    """Build models for every module of one package (or fixture dir)."""
    name, files = package_files(target)
    package = PackageModel(name=name)
    for path, module_name in files:
        package.modules[module_name] = build_module_model(path, module_name)
    return package
