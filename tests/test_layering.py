"""Import boundaries, read from the source with ``ast``.

The oracle is only evidence while it shares no code with the reconciler
or the clients, and the manager must run without the simulation harness.
"""

import ast
from pathlib import Path

import runner_manager

PACKAGE = Path(runner_manager.__file__).parent
ORACLE_MAY_IMPORT = {"clock", "config", "labels", "harness.scenario", "harness.virtual_clock"}


def _is_module(dotted: str) -> bool:
    path = PACKAGE.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _package_imports(source: Path) -> set[str]:
    """The package modules ``source`` imports, dotted from the package root
    (``clock``, ``harness.scenario``)."""
    here = source.relative_to(PACKAGE).parent.parts
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            candidates = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(("runner_manager", *here[: len(here) - node.level + 1]))
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            # ``from x import y`` imports x, and x.y too when y is a module.
            candidates = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        for name in candidates:
            if name.startswith("runner_manager."):
                relative = name.removeprefix("runner_manager.")
                if _is_module(relative):
                    imported.add(relative)
    return imported


def test_import_reader_finds_known_imports():
    assert _package_imports(PACKAGE / "harness" / "oracle.py") >= {"clock", "harness.scenario"}
    assert "reconciler" in _package_imports(PACKAGE / "service.py")


def test_oracle_shares_no_code_with_the_manager():
    imported = _package_imports(PACKAGE / "harness" / "oracle.py")
    assert imported <= ORACLE_MAY_IMPORT, sorted(imported - ORACLE_MAY_IMPORT)


def test_the_manager_does_not_import_the_harness():
    offenders = [
        (source.relative_to(PACKAGE).as_posix(), name)
        for source in sorted(PACKAGE.rglob("*.py"))
        if "harness" not in source.relative_to(PACKAGE).parts
        for name in _package_imports(source)
        if name.split(".")[0] == "harness"
    ]
    assert offenders == []


def _wall_clock_imports(source: Path) -> list[str]:
    """``time`` and ``SystemClock`` imports in ``source``, as written."""
    found = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "time"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "time":
                found.append(node.module)
            found += [alias.name for alias in node.names if alias.name == "SystemClock"]
    return found


def test_import_reader_finds_wall_clock_imports():
    assert _wall_clock_imports(PACKAGE / "clock.py") == ["time"]
    assert _wall_clock_imports(PACKAGE / "service.py") == ["SystemClock"]


def test_the_harness_takes_time_only_from_the_clock_it_is_handed():
    # The fakes and the driver read time and set timers through the clock
    # their caller passes; none may fall back to the wall clock.
    offenders = [
        (source.relative_to(PACKAGE).as_posix(), name)
        for source in sorted((PACKAGE / "harness").rglob("*.py"))
        for name in _wall_clock_imports(source)
    ]
    assert offenders == []
