"""Deterministic CSV/JSON persistence of results.

CSV is the plot-ready exchange format: a header row naming the columns and
one line per row, numbers at 17 significant digits, no volatile fields, so
identical configurations produce byte-identical files.  JSON carries the
full envelope including config echo, trust flags, timing and timestamp, and
round-trips losslessly through :func:`from_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ValidationError

SCHEMA_VERSION = 1

FORMATS = ("csv", "json")


@dataclass
class ResultEnvelope:
    command: str
    config: dict
    columns: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)
    value: dict | None = None
    trust: dict = field(default_factory=dict)
    duration_s: float = 0.0
    timestamp: str = ""
    schema_version: int = SCHEMA_VERSION


def _format_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return format(cell, ".17g")
    return str(cell)


def to_csv(envelope: ResultEnvelope) -> str:
    lines = [",".join(envelope.columns)]
    for row in envelope.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


_ENVELOPE_FIELDS = tuple(f.name for f in fields(ResultEnvelope))


def to_json(envelope: ResultEnvelope) -> str:
    # the envelope's fields as they are: ``dataclasses.asdict`` would
    # deep-copy every row and tower first, for the same text
    data = {name: getattr(envelope, name) for name in _ENVELOPE_FIELDS}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def from_json(text: str) -> ResultEnvelope:
    data = json.loads(text)
    return ResultEnvelope(**{name: data[name] for name in _ENVELOPE_FIELDS})


def emit(envelope: ResultEnvelope, fmt: str, path: str | Path | None = None) -> str:
    """Serialize the envelope; write it to ``path`` when given.

    Returns the serialized text either way.  Filesystem failures surface
    with the offending path in the message.
    """
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}")
    text = to_csv(envelope) if fmt == "csv" else to_json(envelope)
    if path is not None:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc
    return text
