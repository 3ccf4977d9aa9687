"""Model-check engine selection: packed, legacy, or NumPy-vectorized.

The engine is chosen by the checker, not by its users: every engine
produces byte-identical verdict documents (certified by the three-way
differential suite in ``tests/modelcheck/test_frontier_equivalence.py``),
so it never appears in run specs, run ids, campaign identities, cache
keys or command-line options.  ``ModelChecker(engine=...)`` accepts an
explicit name only so the differential suite and reference generators
can run the ``"legacy"`` oracle or pin one engine.

:func:`resolve_engine` maps ``None``/``"auto"`` to ``"vector"`` when NumPy
is importable and to ``"packed"`` otherwise.  An explicit ``"vector"``
request also degrades to ``"packed"`` without NumPy: the vector engine
is a drop-in accelerator for the packed one, so degrading is always
safe.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ENGINES", "numpy_or_none", "resolve_engine"]

#: Engine names accepted by :func:`resolve_engine`.
ENGINES = ("auto", "packed", "legacy", "vector")

_NUMPY = None
_NUMPY_CHECKED = False


def numpy_or_none():
    """The :mod:`numpy` module when importable, else ``None`` (memoised)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised by masking numpy
            numpy = None
        _NUMPY = numpy
        _NUMPY_CHECKED = True
    return _NUMPY


def resolve_engine(name: Optional[str] = None) -> str:
    """Resolve an engine request to a concrete engine name.

    Args:
        name: ``None``/``"auto"`` (best available), or one of
            ``"packed"``, ``"legacy"``, ``"vector"``.

    Returns:
        ``"packed"``, ``"legacy"`` or ``"vector"``.  A ``"vector"``
        request (explicit or resolved) degrades to ``"packed"`` when
        NumPy is absent; the verdict documents are identical either way.

    Raises:
        ValueError: for an unknown engine name.
    """
    if name is None or name == "auto":
        name = "vector" if numpy_or_none() is not None else "packed"
    if name not in ("packed", "legacy", "vector"):
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINES}"
        )
    if name == "vector" and numpy_or_none() is None:
        return "packed"
    return name
