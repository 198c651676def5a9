"""The substrate packages sit below the engine: nothing under ``simt``,
``net``, ``hw``, ``ocl`` or ``storage`` imports a package above them."""

import ast
from pathlib import Path

import repro

SUBSTRATE = {"simt", "net", "hw", "ocl", "storage"}
ABOVE = {"core", "obs", "dag", "service", "apps", "baselines", "bench", "cli"}


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro":    # ``from repro import core``
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"
            else:
                yield node.lineno, node.module


def test_substrate_packages_import_nothing_above_them():
    root = Path(repro.__file__).parent
    upward = []
    for layer in sorted(SUBSTRATE):
        for path in sorted((root / layer).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            assert not any(isinstance(n, ast.ImportFrom) and n.level
                           for n in ast.walk(tree)), \
                f"{path}: relative import hides its target from this scan"
            for lineno, module in imported_modules(tree):
                parts = module.split(".")
                if parts[0] == "repro" and len(parts) > 1 \
                        and parts[1] in ABOVE:
                    upward.append(f"{path.relative_to(root)}:{lineno} "
                                  f"imports {module}")
    assert not upward, "\n".join(upward)


def test_tokens_and_slots_are_held_only_through_take():
    """Outside ``simt`` a process holds a token or a buffer slot through
    ``yield from x.take()``, the one interrupt-safe path: no module calls
    ``acquire`` or ``try_acquire`` and hand-writes the cancel."""
    root = Path(repro.__file__).parent
    calls = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "simt":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("acquire", "try_acquire"):
                calls.append(f"{path.relative_to(root)}:{node.lineno} "
                             f"calls .{node.func.attr}()")
    assert not calls, "\n".join(calls)
