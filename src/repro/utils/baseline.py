"""The committed baseline documents of ``repro bench`` and ``repro serve``
(``BENCH_obs.json`` / ``BENCH_serve.json``) and their per-case drift gate.
Each harness names its metrics; this module owns the file format and
the drift messages."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence


def write_document(doc: dict, path) -> Path:
    """Write ``doc`` as indented, key-sorted JSON; parents are created."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def load_document(path, schema: int) -> dict:
    """Read a baseline document; ``ValueError`` on a schema mismatch."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != schema:
        raise ValueError(
            f"baseline {path} has schema {doc.get('schema')!r}, "
            f"expected {schema}"
        )
    return doc


def case_drift(
    current: dict,
    baseline: dict,
    tolerance: float,
    require_all: bool,
    relative: Sequence[str] = (),
    absolute: Sequence[str] = (),
    exact: Sequence[str] = (),
) -> list[str]:
    """Drift messages over the ``cases`` of two documents (empty = pass):
    ``relative`` / ``absolute`` metrics may drift up to ``tolerance``,
    ``exact`` ones not at all.  A baseline case missing from ``current``
    counts only under ``require_all`` (``--quick`` runs a subset)."""
    problems: list[str] = []
    for name, base_case in sorted(baseline.get("cases", {}).items()):
        cur_case = current.get("cases", {}).get(name)
        if cur_case is None:
            if require_all:
                problems.append(f"{name}: missing from current run")
            continue
        for metric in relative:
            cur, base = cur_case[metric], base_case[metric]
            drift = abs(cur - base) / abs(base) if base else (math.inf if cur else 0.0)
            if drift > tolerance:
                problems.append(
                    f"{name}: {metric} drifted {drift:.1%} ({base:.6g} -> {cur:.6g})"
                )
        for metric in absolute:
            cur, base = cur_case[metric], base_case[metric]
            if abs(cur - base) > tolerance:
                problems.append(
                    f"{name}: {metric} drifted {abs(cur - base):.3f} "
                    f"({base:.4f} -> {cur:.4f})"
                )
        for metric in exact:
            if cur_case[metric] != base_case[metric]:
                problems.append(
                    f"{name}: {metric} changed ({base_case[metric]} -> "
                    f"{cur_case[metric]}) — seeded replay is no longer identical"
                )
    return problems
