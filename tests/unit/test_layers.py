"""The package's layer order, declared once and checked.

Panorama is a one-way pipeline: the frontend, the HSG, the GAR
summaries, then the privatization and parallelization clients and the
front ends above them.  :data:`LAYERS` is the one declaration of that
order; every ``repro`` import under ``src/repro`` must point down it (or
stay inside its own layer).  The root ``repro/__init__`` is the façade
above every layer, and code inside the package may import it only for
``__version__``.

An import inside a function hides a dependency from a reader and from
this check, so every ``repro`` import sits at module level unless
:data:`LAZY_IMPORTS` names its (module, target) pair with the reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: bottom to top; a module belongs to the longest entry that prefixes
#: its dotted name below ``repro``
LAYERS = (
    "lazy",
    "errors",
    "perf",
    "resilience",
    "kernels",
    "symbolic",
    "fortran",
    "hsg",
    "interp",
    "diagnostics",
    "regions",
    "dataflow",
    "privatize",
    "machine",
    "deptest",
    "contents",
    "parallelize",
    "validate",
    "driver",
    "audit",
    "codegen",
    "driver.cli",
    "engine",
    "server",
)

#: the function-level ``repro`` imports, (module, target) → reason; a
#: target covers its submodules
LAZY_IMPORTS = {
    ("driver.cli", "audit"): "only --audit runs the auditor",
    ("driver.cli", "codegen"): "only --emit prints directives",
    ("driver.panorama", "contents"): (
        "only the frontier pass and its audit replay infer contents; an "
        "eager import adds ~13 ms to every process start"
    ),
    ("engine.batch", "audit"): "only --audit runs the auditor",
    ("engine.batch", "kernels"): "only --kernels reads the registry",
    ("server.cli", "kernels"): "only --selftest reads the registry",
    ("engine.backends", "engine.cache"): (
        "cache imports backends, and stored entries pickle by their "
        "engine.cache class path"
    ),
    ("engine.batch", "driver.panorama"): (
        "only a result-tier miss compiles (a pool parent imports it for "
        "its forked workers); a served run skips its ~200 ms import"
    ),
    ("engine.cache", "fortran.printers"): (
        "only a compile fingerprints routines; the printers and the AST "
        "node classes cost ~22 ms to import"
    ),
}


def _module_name(path: Path) -> str:
    """Dotted name below ``repro`` ('' for the root package)."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(p): p for p in sorted(SRC.rglob("*.py"))}


def _layer(name: str):
    """Index in :data:`LAYERS` of module *name* (None when in no layer)."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        prefix = ".".join(parts[:end])
        if prefix in LAYERS:
            return LAYERS.index(prefix)
    return None


def _targets(node: ast.AST, module: str) -> list[tuple[str, list[str]]]:
    """``(target, names)`` of each ``repro`` module *node* imports;
    the target is a name below ``repro`` ('' for the root package)."""
    if isinstance(node, ast.Import):
        return [
            (alias.name[len("repro."):] if "." in alias.name else "", [])
            for alias in node.names
            if alias.name.split(".")[0] == "repro"
        ]
    if node.level:
        package = module.split(".") if module else []
        if MODULES[module].name != "__init__.py":
            package = package[:-1]
        base = package[: len(package) - node.level + 1]
        base += node.module.split(".") if node.module else []
    elif (node.module or "").split(".")[0] == "repro":
        base = node.module.split(".")[1:]
    else:
        return []
    target = ".".join(base)
    out: list[tuple[str, list[str]]] = []
    names = []
    for alias in node.names:
        sub = f"{target}.{alias.name}" if target else alias.name
        if sub in MODULES:
            out.append((sub, []))
        else:
            names.append(alias.name)
    if names:
        out.append((target, names))
    return out


def _imports():
    """``(file:line, module, target, names, lazy)`` for every ``repro``
    import under ``src/repro``."""
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(SRC)

        def visit(node: ast.AST, lazy: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for target, names in _targets(child, module):
                        yield f"{where}:{child.lineno}", module, target, names, lazy
                inner = lazy or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                yield from visit(child, inner)

        yield from visit(tree, False)


def _allowed_lazy(module: str, target: str):
    """The :data:`LAZY_IMPORTS` key covering *module* → *target*."""
    for source, prefix in LAZY_IMPORTS:
        if module == source and (
            target == prefix or target.startswith(prefix + ".")
        ):
            return source, prefix
    return None


def test_every_module_has_a_layer():
    unplaced = [m for m in MODULES if m and _layer(m) is None]
    assert not unplaced, f"modules in no declared layer: {unplaced}"


def test_imports_point_down_the_layer_order():
    bad = []
    for where, module, target, names, _ in _imports():
        if not module:
            continue
        if not target:
            if names != ["__version__"]:
                bad.append(f"{where}: {module} → repro {names} "
                           "(the root package gives only __version__)")
        elif _layer(target) > _layer(module):
            bad.append(f"{where}: {module} → {target} points up "
                       f"({LAYERS[_layer(module)]} below "
                       f"{LAYERS[_layer(target)]})")
    assert not bad, "imports against the layer order:\n" + "\n".join(bad)


def test_function_level_imports_are_allowlisted():
    bad = [
        f"{where}: {module} → {target or 'repro'}"
        for where, module, target, _, lazy in _imports()
        if lazy and _allowed_lazy(module, target) is None
    ]
    assert not bad, (
        "function-level repro imports not in LAZY_IMPORTS (hoist them):\n"
        + "\n".join(bad)
    )


def test_every_allowlist_entry_matches_an_import():
    used = {
        _allowed_lazy(module, target)
        for _, module, target, _, lazy in _imports()
        if lazy
    }
    stale = [f"{m} → {t}" for m, t in LAZY_IMPORTS if (m, t) not in used]
    assert not stale, f"LAZY_IMPORTS entries matching no import: {stale}"


#: functions outside ``repro.hsg`` that walk the HSG themselves (recurse
#: while reading ``.nodes`` or ``.members``, or loop over a cycle's
#: ``.members``), ``module:qualname`` → reason.  Every other pass walks
#: loop bodies and condensed cycles with ``hsg.walk``, so how the HSG
#: nests is decided in one module.
HSG_WALKERS: dict[str, str] = {}


def _hsg_walkers():
    """``module:qualname`` of each function outside ``repro.hsg`` that is
    self-recursive and reads a ``.nodes`` or ``.members`` attribute, or
    that iterates a ``.members`` attribute."""
    for module, path in MODULES.items():
        if module == "hsg" or module.startswith("hsg."):
            continue
        tree = ast.parse(path.read_text(), str(path))

        def visit(node: ast.AST, prefix: str):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", "")
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inside = list(ast.walk(child))
                    recursive = any(
                        isinstance(n, ast.Call)
                        and name in (getattr(n.func, "id", None),
                                     getattr(n.func, "attr", None))
                        for n in inside
                    )
                    reads = any(
                        isinstance(n, ast.Attribute)
                        and n.attr in ("nodes", "members")
                        for n in inside
                    )
                    loops_members = any(
                        isinstance(n, (ast.For, ast.comprehension))
                        and isinstance(n.iter, ast.Attribute)
                        and n.iter.attr == "members"
                        for n in inside
                    )
                    if (recursive and reads) or loops_members:
                        yield f"{module}:{prefix}{name}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    yield from visit(child, f"{prefix}{name}.")
                else:
                    yield from visit(child, prefix)

        yield from visit(tree, "")


def test_hsg_is_walked_only_through_hsg_walk():
    found = set(_hsg_walkers())
    assert found == set(HSG_WALKERS), (
        "recursive HSG walkers outside repro.hsg (iterate hsg.walk, or "
        f"list one in HSG_WALKERS with its reason): {sorted(found)}; "
        f"stale entries: {sorted(set(HSG_WALKERS) - found)}"
    )
