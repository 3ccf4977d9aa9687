"""Name of the batched engine's occupancy storage.

:class:`~repro.batchsim.engine.BatchEngine` keeps one ``array('i')`` row
per lane and packs them with
:meth:`~repro.core.cyclic.PackedSequenceCodec.pack_many`; there is no
other storage to choose.  :func:`resolve_backend` names it for callers
that record it next to their measurements.
"""

from __future__ import annotations

__all__ = ["resolve_backend"]


def resolve_backend() -> str:
    """The occupancy storage in use: always ``"stdlib"``."""
    return "stdlib"
