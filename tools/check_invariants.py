#!/usr/bin/env python
"""Static invariant checks over ``src/`` (stdlib :mod:`ast` only; no deps).

Run from the repository root (CI does)::

    python tools/check_invariants.py

Three repository-wide invariants that no unit test can pin down, because each
is a property of *all* source files at once:

``frozen-mutation``
    ``object.__setattr__`` is the only way to mutate a frozen dataclass, so
    its use is confined to the modules that own the node lifecycles (interning
    and ``__post_init__`` canonicalisation).  Anywhere else it is someone
    mutating a shared, hash-consed node — a cross-thread data race.

``legacy-import``
    ``repro.solver.legacy`` is the pre-PR-4 reference solver, kept for
    differential tests only.  No module under ``src/`` may import it, the
    ``repro.solver`` package included: production code imports
    ``repro.solver``, which does not re-export it.

``unregistered-mutable``
    Worker threads share every module-level container.  Mutable module state
    is only safe when it is a guarded cache registered through
    :func:`repro.caches.register_cache` (mutations go through
    ``caches.CACHE_LOCK``; ``REPRO_SANITIZE=1`` enforces it at runtime).
    This check flags module-level bindings of *empty* mutable containers —
    a container born empty exists to be filled at runtime, i.e. it is a
    cache — that bypass the registry.  Literal tables built in full at
    import time (operator maps, lexicons, ``__all__``) are read-only by
    convention and are not flagged.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Modules whose node lifecycles legitimately need ``object.__setattr__``
#: (interning machinery, frozen-dataclass ``__post_init__`` setup, and the
#: on-node memo stamps — ``_hash``-style pure-value attributes whose single
#: atomic write makes a racing overwrite benign).
SETATTR_ALLOWED = {
    "repro/dsl/ast.py",
    "repro/dsl/intern.py",
    "repro/api/problem.py",
    "repro/sketch/ast.py",
    "repro/solver/terms.py",
    "repro/synthesis/partial.py",
    "repro/synthesis/approximate.py",
}

#: Module-level empty containers exempt from the registry requirement.
#: Key is the path relative to ``src/``, values are the binding names.
MUTABLE_ALLOWED = {
    "repro/caches.py": {"_REGISTRY"},  # the registry itself, locked on write
}

MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "WeakKeyDictionary",
    "WeakValueDictionary",
}

Finding = Tuple[str, int, str, str]  # path, line, code, message


def _is_register_cache_call(node: ast.expr) -> bool:
    """True for ``caches.register_cache(...)`` / ``register_cache(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "register_cache"
    return isinstance(func, ast.Name) and func.id == "register_cache"


def _is_empty_mutable_value(node: ast.expr) -> bool:
    """True for ``{}``, ``[]``, ``dict()``, ``WeakKeyDictionary()``, ...

    Only *empty* containers count: a container born empty at module level
    exists to be filled at runtime, which makes it a cache.  Tables built in
    full at import time are read-only by repository convention.
    """
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in MUTABLE_CONSTRUCTORS
    return False


def _module_level_bindings(tree: ast.Module) -> Iterator[Tuple[str, ast.expr, int]]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                yield target.id, stmt.value, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                yield stmt.target.id, stmt.value, stmt.lineno


def check_file(path: Path, relative: "str | None" = None) -> List[Finding]:
    if relative is None:
        relative = path.relative_to(SRC_ROOT).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    findings: List[Finding] = []

    for node in ast.walk(tree):
        # object.__setattr__(...) outside the allowed lifecycle modules.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and relative not in SETATTR_ALLOWED
        ):
            findings.append(
                (
                    relative,
                    node.lineno,
                    "frozen-mutation",
                    "object.__setattr__ mutates a frozen (possibly shared, "
                    "hash-consed) node; only the node-lifecycle modules may",
                )
            )
        # Imports of the differential-testing-only legacy solver.
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.solver.legacy") or (
                module == "repro.solver" and any(a.name == "legacy" for a in node.names)
            ):
                findings.append(
                    (
                        relative,
                        node.lineno,
                        "legacy-import",
                        "repro.solver.legacy is for differential tests only; "
                        "import repro.solver",
                    )
                )
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("repro.solver.legacy") for alias in node.names):
                findings.append(
                    (
                        relative,
                        node.lineno,
                        "legacy-import",
                        "repro.solver.legacy is for differential tests only; "
                        "import repro.solver",
                    )
                )

    # Module-level mutable bindings that bypass the cache registry.
    allowed_names = MUTABLE_ALLOWED.get(relative, set())
    for name, value, lineno in _module_level_bindings(tree):
        if name in allowed_names or name == "__all__":
            continue
        if _is_register_cache_call(value):
            continue
        if _is_empty_mutable_value(value):
            findings.append(
                (
                    relative,
                    lineno,
                    "unregistered-mutable",
                    f"module-level mutable binding {name!r} is shared across "
                    "worker threads; register it via caches.register_cache "
                    "or add it to the allowlist with a written justification",
                )
            )
    return findings


def check_tree(root: Path = SRC_ROOT) -> List[Finding]:
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(check_file(path))
    return findings


def main() -> int:
    if not SRC_ROOT.is_dir():
        print(f"check_invariants: no src/ directory under {REPO_ROOT}", file=sys.stderr)
        return 2
    findings = check_tree()
    for path, lineno, code, message in findings:
        print(f"src/{path}:{lineno}: [{code}] {message}")
    if findings:
        print(f"check_invariants: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
