"""Serialisation for behavior logs and the Entity Dict.

Real deployments ship logs between systems as line-delimited records; this
module provides the same for the synthetic substrate, so worlds can be
generated once and experiments replayed from files (and so downstream users
can plug their *own* logs into the pipeline by writing this format).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.datasets.behavior import BehaviorLog, BehaviorLogBuilder
from repro.errors import ConfigError
from repro.text.entity_dict import EntityDict, EntityEntry


# ----------------------------------------------------------------------
# Behavior events (JSONL)
# ----------------------------------------------------------------------
def save_events(events: BehaviorLog, path: str | Path) -> int:
    """Write events as JSON lines; returns the number written."""
    path = Path(path)
    with open(path, "w") as handle:
        for event in events:
            record = {
                "user_id": event.user_id,
                "day": event.day,
                "channel": event.channel,
                "text": event.text,
                "mentions": [[m.start, m.end, m.entity_id] for m in event.mentions],
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    return len(events)


def load_events(path: str | Path) -> BehaviorLog:
    """Read events written by :func:`save_events`.

    Every row is checked once, as it is read: a row the system cannot use
    (see :meth:`BehaviorLogBuilder.append`) raises ``ConfigError`` naming
    ``path:line``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no event file at {path}")
    log = BehaviorLogBuilder()
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigError(f"{path}:{line_number}: invalid JSON ({error})") from error
            try:
                log.append(
                    int(record["user_id"]),
                    int(record["day"]),
                    str(record["channel"]),
                    str(record["text"]),
                    [(int(s), int(e), int(eid)) for s, e, eid in record["mentions"]],
                )
            except (KeyError, TypeError, ValueError) as error:
                raise ConfigError(f"{path}:{line_number}: malformed record ({error})") from error
            except ConfigError as error:
                raise ConfigError(f"{path}:{line_number}: {error}") from error
    return log.build()


# ----------------------------------------------------------------------
# Entity Dict (TSV: id, type_id, type_name, name)
# ----------------------------------------------------------------------
def save_entity_dict(entity_dict: EntityDict, path: str | Path) -> int:
    path = Path(path)
    entries = sorted(entity_dict, key=lambda e: e.entity_id)
    with open(path, "w") as handle:
        handle.write("entity_id\ttype_id\ttype_name\tname\n")
        for entry in entries:
            handle.write(f"{entry.entity_id}\t{entry.type_id}\t{entry.type_name}\t{entry.name}\n")
    return len(entries)


def load_entity_dict(path: str | Path) -> EntityDict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no entity dict file at {path}")
    entries: list[EntityEntry] = []
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header != ["entity_id", "type_id", "type_name", "name"]:
            raise ConfigError(f"unexpected entity dict header: {header}")
        for line_number, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ConfigError(f"{path}:{line_number}: expected 4 columns")
            entity_id, type_id, type_name, name = parts
            entries.append(
                EntityEntry(int(entity_id), name, int(type_id), type_name)
            )
    return EntityDict(entries)
