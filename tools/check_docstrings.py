#!/usr/bin/env python
"""Docstring-coverage lint for the public surface of ``src/repro``.

Usage::

    python tools/check_docstrings.py                # lint (CI mode)
    python tools/check_docstrings.py --report       # per-package table only

Counts docstrings on the *public* surface: each module, plus every
public (non-underscore) top-level function, class, and public method of
a public class.  Nested functions, private helpers, and ``__dunder__``
methods — including ``__init__``, whose construction contract belongs in
the class docstring — are out of scope: the lint is about the API a
reader meets first, not inner plumbing.

Two gates, both enforced with exit code 1:

* every package must stay at or above ``GLOBAL_MIN`` coverage;
* the packages in ``STRICT_PACKAGES`` (the layers documents point
  readers at) must have **no** missing docstrings at all.

The thresholds are a ratchet: raise them as coverage grows, never lower
them.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

#: Minimum public-docstring coverage required of every package.
GLOBAL_MIN = 0.90

#: Packages whose public surface must be fully documented.
STRICT_PACKAGES = (
    "runs", "modelcheck", "batchsim", "simulator", "model", "campaign", "context"
)


def is_public(name: str) -> bool:
    return not name.startswith("_")


def iter_public_objects(tree: ast.Module, module: str):
    """Yield ``(qualified_name, node)`` for the module's public surface."""
    yield module, tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_public(node.name):
                yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and is_public(node.name):
            yield f"{module}.{node.name}", node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if is_public(item.name):
                        yield f"{module}.{node.name}.{item.name}", item


def module_name(path: str) -> str:
    relative = os.path.relpath(path, os.path.dirname(SRC_ROOT))
    parts = relative[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "(top)"


def scan():
    """Return ``(per_package, missing)`` over every module in src/repro."""
    per_package = {}
    missing = []
    for directory, _subdirs, files in sorted(os.walk(SRC_ROOT)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            module = module_name(path)
            package = package_of(module)
            counts = per_package.setdefault(package, [0, 0])
            for qualified, node in iter_public_objects(tree, module):
                counts[1] += 1
                if ast.get_docstring(node):
                    counts[0] += 1
                else:
                    missing.append((package, qualified, path, getattr(node, "lineno", 1)))
    return per_package, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", action="store_true", help="print the coverage table and exit 0"
    )
    args = parser.parse_args(argv)

    per_package, missing = scan()
    failures = []
    print(f"{'package':<14} {'documented':>10} {'total':>6} {'coverage':>9}")
    for package in sorted(per_package):
        documented, total = per_package[package]
        coverage = documented / total if total else 1.0
        strict = package in STRICT_PACKAGES
        floor = 1.0 if strict else GLOBAL_MIN
        marker = ""
        if coverage < floor:
            marker = "  <-- below the {:.0%} {} floor".format(
                floor, "strict" if strict else "global"
            )
            failures.append(package)
        print(f"{package:<14} {documented:>10} {total:>6} {coverage:>8.1%}{marker}")

    if args.report:
        return 0
    if failures:
        print()
        for package, qualified, path, lineno in missing:
            if package in failures:
                print(f"missing docstring: {qualified} ({path}:{lineno})")
        print(f"\ndocstring lint failed for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("\ndocstring lint ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
