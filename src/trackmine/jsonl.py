"""The JSONL form of an event log, one JSON object per record; no numpy.

Only a log path ending in ``.jsonl`` has the CLI import this module, so a
subcommand that reads or writes the text form does not compile it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .errors import DataError
from .eventlog import EventLog, Group, _reason, _record, _string, format_timestamp


def log_to_jsonl(log: EventLog) -> str:
    """One compact ``{"locations":[{"id":...,"entities":[{"id":...,"prop":...}]}],"ts":...}``
    line per record, escaped as by ``json.dumps``' default ``ensure_ascii``.
    Each distinct Group's JSON is made once per call."""
    encode = encode_basestring_ascii
    memo: dict[Group, str] = {}
    lines = []
    for r in log.records:
        texts = []
        for g in r.groups:
            if (text := memo.get(g)) is None:
                ents = ",".join([f'{{"id":{encode(e.entity_id)},"prop":{encode(e.prop)}}}'
                                 for e in g.entities])
                text = memo[g] = f'{{"id":{encode(g.location_id)},"entities":[{ents}]}}'
            texts.append(text)
        # a formatted timestamp holds only digits, "/", ":" and ".", which JSON takes as they are
        lines.append(f'{{"locations":[{",".join(texts)}],'
                     f'"ts":"{format_timestamp(r.timestamp)}"}}\n')
    return "".join(lines)


def log_from_jsonl(text: str, label: str = "") -> EventLog:
    """One ``{"locations": [{"id", "entities": [{"id", "prop"}]}], "ts"}``
    object per line; every id, prop and ts is a string, and prop may be omitted.

    Each distinct group, a location id with its (entity id, property)
    pairs, is checked once per call: a dict that lives for the call maps it
    to its Group, which every record holding that group shares."""
    records = []
    memo: dict[tuple, Group] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            groups = [
                (_string(g["id"], "id"), tuple(
                    (_string(e["id"], "id"), _string(e.get("prop", ""), "prop"))
                    for e in g["entities"]
                ))
                for g in obj["locations"]
            ]
            ts = _string(obj["ts"], "ts")
        except (ValueError, KeyError, TypeError, RecursionError, DataError) as exc:
            raise DataError(f"line {lineno}: {_reason(exc)}") from None
        records.append(_record(memo, groups, ts, lineno, lambda group: group))
    return EventLog(records=tuple(records), label=label)
