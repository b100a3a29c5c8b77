"""Module checkpoints: one module's parameters in the shared archive.

Thin wrappers over :func:`~repro.runtime.checkpoint.save_archive` /
:func:`~repro.runtime.checkpoint.load_archive` (archive kind
``module``), so a model checkpoint carries the same crc32 manifest as
every other checkpoint in the repo.
"""

from __future__ import annotations

from repro.nn.module import Module
from repro.runtime.checkpoint import load_archive, namespace, save_archive

_PARAM = "param::"


def save_checkpoint(module: Module, path, metadata: dict | None = None, tracer=None) -> None:
    """Write every parameter (plus JSON metadata) to an ``.npz`` file.

    An attached tracer receives a ``checkpoint`` marker (array count/bytes)
    and an ``io`` marker for the archive write.
    """
    arrays = {_PARAM + name: value for name, value in module.state_dict().items()}
    save_archive(path, arrays, {"kind": "module", "user": metadata or {}},
                 tracer=tracer)


def load_checkpoint(module: Module, path, tracer=None) -> dict:
    """Load parameters saved by :func:`save_checkpoint`; returns the metadata.

    Raises ``KeyError`` when the archive's parameter set does not match
    the module's (missing or extra keys), ``ValueError`` on shape
    mismatches, ``FileNotFoundError`` when there is no archive, and
    :class:`~repro.runtime.checkpoint.CheckpointCorruptError` when the
    archive fails its integrity checks.
    """
    arrays, meta = load_archive(path, tracer=tracer, kind="module")
    module.load_state_dict(namespace(arrays, _PARAM))
    return meta["user"]
