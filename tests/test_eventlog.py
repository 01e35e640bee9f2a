import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackmine import eventlog
from trackmine.errors import DataError
from trackmine.eventlog import (
    Cycle,
    Entity,
    EventLog,
    EventRecord,
    Group,
    Occurrence,
    gantt,
    load_occurrences_csv,
    log_from_jsonl,
    log_to_jsonl,
    occurrences_to_log,
    parse_log,
    parse_record,
    parse_timestamp,
    precision,
    segment_cycles,
    serialize_log,
    to_datetime,
    write_occurrences_csv,
)

from _oracles import (gantt_per_tick, log_from_jsonl_per_line, log_to_jsonl_dumps,
                      occurrences_to_log_per_occurrence, parse_log_per_line,
                      parse_record_split_top, parse_timestamp_fields, precision_scan,
                      segment_cycles_per_record, segment_cycles_scan,
                      serialize_log_per_record)


def rec(ts, *groups):
    return EventRecord(
        groups=tuple(
            Group(loc, tuple(Entity(e, p) for e, p in ents)) for loc, ents in groups
        ),
        timestamp=ts,
    )


T0 = datetime(2024, 8, 15, 17, 40, 50)


class TestParse:
    def test_single_record(self):
        label, r = parse_record("EL1: {s1, (E1,v1), 2024/08/15/17:40:50}")
        assert label == "EL1"
        assert r.timestamp == T0
        assert len(r.groups) == 1
        g = r.groups[0]
        assert g.location_id == "s1"
        assert g.entities == (Entity("E1", "v1"),)

    def test_two_entities_one_location(self):
        _, r = parse_record("{s1, (E1,v1), (E3,h1), 2024/08/15/18:12:20}")
        assert r.groups[0].entities == (Entity("E1", "v1"), Entity("E3", "h1"))

    def test_simultaneous_locations(self):
        _, r = parse_record("{s1, (E1,v1); s2, (E2,v2), 2024/08/15/18:12:20}")
        assert [g.location_id for g in r.groups] == ["s1", "s2"]

    def test_abbreviated_form(self):
        _, r = parse_record("EL1: {v1_s1, 2024/08/15/17:40:50}")
        g = r.groups[0]
        assert g.location_id == "s1"
        assert g.entities == (Entity("v1_s1", "v1"),)

    def test_iso_timestamp_accepted(self):
        _, r = parse_record("{s1, (E1,v1), 2024-08-15T17:40:50}")
        assert r.timestamp == T0

    def test_malformed_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_log("{s1, (E1,v1), 2024/08/15/17:40:50}\n\n{oops}\n")

    @pytest.mark.parametrize("ts", ["2024/13/15/10:00:00", "2024-02-30T10:00:00",
                                    "2024/08/15/24:00:00"])
    def test_out_of_range_timestamp_rejected(self, ts):
        with pytest.raises(DataError) as exc:
            parse_record(f"{{s1, (a,b), {ts}}}", lineno=4)
        assert str(exc.value) == f"line 4: unparseable timestamp {ts!r}"

    def test_decreasing_timestamp_raises(self):
        text = (
            "{s1, (E1,v1), 2024/08/15/17:40:50}\n"
            "{s2, (E1,v1), 2024/08/15/17:40:10}\n"
        )
        with pytest.raises(DataError) as exc:
            parse_log(text)
        assert str(exc.value) == ("event log '': record 2 at 2024/08/15/17:40:10 is earlier "
                                  "than record 1 at 2024/08/15/17:40:50")

    def test_second_label_rejected(self):
        with pytest.raises(DataError) as exc:
            parse_log("EL1: {s1, (E1,v1), 2024/08/15/17:40:50}\n"
                      "{s1, (E1,v1), 2024/08/15/17:40:51}\n"
                      "EL2: {s2, (E1,v1), 2024/08/15/17:40:52}\n")
        assert str(exc.value) == "line 3: label 'EL2' differs from the log's label 'EL1'"

    def test_label_line_is_checked_like_a_record_label(self):
        with pytest.raises(DataError) as exc:
            parse_log("EL1:\nEL2: {s1, (E1,v1), 2024/08/15/17:40:50}\n")
        assert str(exc.value) == "line 2: label 'EL2' differs from the log's label 'EL1'"

    def test_unlabeled_lines_take_the_log_label(self):
        log = parse_log("{s1, (E1,v1), 2024/08/15/17:40:50}\n"
                        "EL1: {s1, (E1,v1), 2024/08/15/17:40:51}\n"
                        "{s2, (E1,v1), 2024/08/15/17:40:52}\n")
        assert log.label == "EL1" and len(log.records) == 3

    def test_semicolon_inside_pair(self):
        # no name holds ";", so each one separates groups and leaves a pair unclosed
        for line in ["{s1, (E;1,v); s2, (E2,v2), 2024/08/15/17:40:50}",
                     "{s1, (E1,v); s2, (E2,v;2), 2024/08/15/17:40:50}"]:
            with pytest.raises(DataError, match=r"^line 2: malformed \(entity,property\) pair "):
                parse_record(line, lineno=2)

    @pytest.mark.parametrize("line", [
        "{, (E1,v1), 2024/08/15/17:40:50}",
        "{v1_, 2024/08/15/17:40:50}",
        "{s1, (E1,v1); ; s2, (E2,v2), 2024/08/15/17:40:50}",
        "{s(1, (E1,v1), 2024/08/15/17:40:50}",
        "{s)1, (E1,v1), 2024/08/15/17:40:50}",
        "{v_1 (E1,v1), 2024/08/15/17:40:50}",
    ], ids=["empty", "abbreviated_empty", "empty_group", "open_paren", "close_paren",
            "abbreviated_paren"])
    def test_bad_location_rejected(self, line):
        with pytest.raises(DataError, match="^line 2: "):
            parse_record(line, lineno=2)

    def test_round_trip_canonicalizes_abbreviated(self):
        log = parse_log("EL1: {v1_s1, 2024/08/15/17:40:50}")
        text = serialize_log(log)
        assert text == "EL1: {s1, (v1_s1,v1), 2024/08/15/17:40:50}\n"
        assert parse_log(text) == log


_RECORD_NAMES = ["s1", "v_1", "E;1", "x{y", "a)(b", ""]
_RECORD_TIMES = ["2024/08/15/10:00:00", "2024-08-15T10:00:00", "2024-08-15 10:00:00",
                 "2024/13/15/10:00:00", "2024/8/15/10:00:00", "x"]


@st.composite
def record_lines(draw):
    """Record lines over awkward names, then a few characters inserted or deleted."""
    name = st.sampled_from(_RECORD_NAMES)
    pair = st.builds("({},{})".format, name, name)
    group = st.one_of(
        st.builds("{}_{}".format, name, name),
        st.builds(lambda head, pairs: ", ".join([head, *pairs]), name,
                  st.lists(pair, max_size=3)),
    )
    groups = "; ".join(draw(st.lists(group, min_size=1, max_size=3)))
    label = draw(st.sampled_from(["", "EL1: ", "EL1:"]))
    line = f"{label}{{{groups}, {draw(st.sampled_from(_RECORD_TIMES))}}}"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(line)))
        if draw(st.booleans()):
            line = line[:i] + draw(st.sampled_from(",;(){}:_/-T ")) + line[i:]
        else:
            line = line[:i] + line[i + 1:]
    return line


@given(record_lines())
@example("{x{y), (x{y,E;1), 2024-08-15 10:00:00}")
@settings(max_examples=500)
def test_parse_record_matches_split_top_parser(line):
    try:
        want = parse_record_split_top(line, 7)
    except DataError:
        want = None
    # Where the old parser accepts, a paren in a location or entity id can
    # only come from a group head (pairs hold no parens), and an empty head
    # gives an empty location, which Group rejects.
    names = [] if want is None else [
        name for g in want[1].groups for name in (g.location_id, *(e.entity_id for e in g.entities))
    ]
    if want is not None and not any("(" in n or ")" in n for n in names):
        assert parse_record(line, 7) == want
    else:
        with pytest.raises(DataError):
            parse_record(line, 7)


def _names():
    """Names by the one name rule (``eventlog.name_ok``): printable, none of
    ',;()"' and no whitespace at an end; drawn with the characters JSON and
    HTML escape, other non-ASCII ones and inner spaces."""
    chars = "a9Z_-\\<&>{}:#'\u00e9\u4e2d\U0001f600"
    edge = st.sampled_from(chars)
    inner = st.text(st.sampled_from(chars + " "), max_size=3)
    return st.one_of(edge, st.builds("{}{}{}".format, edge, inner, edge))


_LOCATIONS = _names()
_ENTITIES = _names()


@st.composite
def logs(draw):
    """Logs over a small pool of names per log, so that groups repeat, at
    times that repeat and now and then carry microseconds."""
    locations = draw(st.lists(_LOCATIONS, min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(_ENTITIES, st.one_of(st.just(""), _ENTITIES)),
                          min_size=1, max_size=4))
    t = datetime(2024, 8, 15, 10, 0, 0)
    records = []
    for _ in range(draw(st.integers(1, 6))):
        t += timedelta(seconds=draw(st.integers(0, 500)),
                       microseconds=draw(st.sampled_from([0, 0, 0, 1, 999_999])))
        m = draw(st.integers(1, min(3, len(locations))))
        locs = draw(st.lists(st.sampled_from(locations), min_size=m, max_size=m, unique=True))
        records.append(rec(t, *[(loc, draw(st.lists(st.sampled_from(pairs), min_size=1,
                                                      max_size=3)))
                                for loc in locs]))
    return EventLog(records=tuple(records), label=draw(st.sampled_from(["", "EL1"])))


class TestRoundTrip:
    @given(logs())
    @settings(max_examples=80)
    def test_parse_serialize_identity(self, log):
        assert parse_log(serialize_log(log)) == log

    @given(logs())
    @settings(max_examples=40)
    def test_serialize_parse_canonical(self, log):
        text = serialize_log(log)
        assert serialize_log(parse_log(text)) == text

    @pytest.mark.parametrize("label, text", [("EL1", "EL1:\n"), ("", "")],
                             ids=["labelled", "unlabelled"])
    def test_empty_log_keeps_its_label(self, label, text):
        # the label has no record line to ride on, so it gets a line of its own
        log = EventLog((), label)
        assert serialize_log(log) == text
        assert parse_log(text) == log

    @given(logs())
    @settings(max_examples=40)
    def test_jsonl_mirror(self, log):
        again = log_from_jsonl(log_to_jsonl(log), label=log.label)
        assert again == log


class TestJsonl:
    def test_iso_timestamp_and_missing_prop(self):
        log = log_from_jsonl('\n{"locations": [{"id": "s1", "entities": [{"id": "E1"}]}], '
                             '"ts": "2024-08-15T17:40:50"}\n')
        assert log.records == (rec(T0, ("s1", [("E1", "")])),)

    def test_record_error_names_line(self):
        with pytest.raises(DataError, match="^line 2: record has no location groups$"):
            log_from_jsonl('\n{"locations": [], "ts": "2024/08/15/17:40:50"}\n')

    def test_prop_with_line_break_rejected(self):
        with pytest.raises(DataError, match="^line 1: property "):
            log_from_jsonl('{"locations": [{"id": "s1", "entities": [{"id": "E1", '
                           '"prop": "h\\nx"}]}], "ts": "2024/08/15/17:40:50"}\n')


def assert_same_outcome(read, oracle, *args):
    """read(*args) equals oracle(*args), or both raise a DataError with one message."""
    try:
        want = oracle(*args)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read(*args)
        assert str(got.value) == str(exc)
    else:
        assert read(*args) == want


@given(logs())
@settings(max_examples=200)
def test_writers_match_per_record_writers(log):
    assert serialize_log(log) == serialize_log_per_record(log)
    assert log_to_jsonl(log) == log_to_jsonl_dumps(log)
    for lane_key in ("location", "entity"):
        assert gantt(log, lane_key) == gantt_per_tick(log, lane_key)


# mostly names the record types take, now and then one they reject
_OCC_LOCATIONS = st.sampled_from(["s1", "s2", "a\\b", "<&>", "\u00e9 x"] * 8
                                 + ["s(1", "s;1", " s1", "", 'a"b'])
_OCC_CLASSES = st.sampled_from(["h", "v", "E-1", "\u4e2d"] * 8 + ["", "h,1", "v\n", "E;1"])
_OCC_TRACKS = st.sampled_from(["", "", "T1", "T2", "T 3"] * 8 + ["T(1", "T1 "])


@given(st.lists(st.builds(
    Occurrence,
    start_time=st.one_of(st.integers(0, 4).map(float), st.sampled_from([0.5, -1e-6, 1e12])),
    location_id=_OCC_LOCATIONS,
    entity_class=_OCC_CLASSES,
    track_id=_OCC_TRACKS,
), max_size=12), st.sampled_from(["", "EL1"] * 5 + ["E L"]))
@settings(max_examples=300, deadline=None)
def test_occurrences_to_log_matches_per_occurrence_builder(occurrences, label):
    assert_same_outcome(occurrences_to_log, occurrences_to_log_per_occurrence, occurrences,
                        label)


_TIMESTAMP_EDGES = {
    "month_13": ["2024/13/15/10:00:00", "2024-13-15T10:00:00"],
    "month_0": ["2024/00/15/10:00:00"],
    "february_30": ["2024/02/30/10:00:00", "2024-02-30 10:00:00"],
    "february_29": ["2023/02/29/10:00:00", "2024/02/29/10:00:00"],
    "hour_24": ["2024/08/15/24:00:00", "2024-08-15T24:00:00", "2024-12-31 24:00:00.000000"],
    "minute_60": ["2024/08/15/10:60:00", "2024-08-15T10:60:00"],
    "second_60": ["2024/08/15/23:59:60", "2024-08-15T23:59:60.000000"],
    "year_0000": ["0000/01/01/00:00:00", "0000-01-01T00:00:00"],
    "calendar_ends": ["0001/01/01/00:00:00", "9999-12-31T23:59:59.999999"],
    "full_width_digits": ["\uff12\uff10\uff12\uff14/08/15/10:00:00",
                          "2024-08-15T10:00:0\uff10", "\u0662\u0660\u0662\u0664/13/15/10:00:00"],
    "fraction_5_digits": ["2024/08/15/10:00:00.12345", "2024-08-15T10:00:00.12345"],
    "fraction_7_digits": ["2024/08/15/10:00:00.1234567"],
    "fraction_comma": ["2024-08-15T10:00:00,123456"],
    "whitespace": ["  2024/08/15/10:00:00 ", "\t2024-08-15T10:00:00.000001\n",
                   "\u30002024-08-15 10:00:00\u3000"],
    "mixed_separators": ["2024/08/15T10:00:00", "2024-08-15/10:00:00", "2024-08-15x10:00:00"],
    "offset": ["2024-08-15T10:00:00+00:00", "2024/08/15/10:00:00Z"],
    "short_fields": ["2024/8/15/10:00:00", "24/08/15/10:00:00", "2024-08-15T10:00"],
}


@pytest.mark.parametrize("text", [t for ts in _TIMESTAMP_EDGES.values() for t in ts],
                         ids=[f"{k}{i}" for k, ts in _TIMESTAMP_EDGES.items()
                              for i in range(len(ts))])
def test_timestamp_edges_match_field_parser(text):
    assert_same_outcome(parse_timestamp, parse_timestamp_fields, text)


@st.composite
def timestamp_fields(draw):
    """A timestamp of drawn fields, out-of-range ones included, in one of the
    three layouts, with or without a fraction."""
    year, month, day, *hms = (draw(st.integers(0, n)) for n in (9999, 13, 32, 25, 61, 61))
    date, time = draw(st.sampled_from([("/", "/"), ("-", "T"), ("-", " ")]))
    fraction = draw(st.sampled_from(["", f".{draw(st.integers(0, 999_999)):06d}"]))
    return (f"{year:04d}{date}{month:02d}{date}{day:02d}{time}"
            + ":".join(f"{v:02d}" for v in hms) + fraction)


@settings(max_examples=300, deadline=None)
@given(timestamp_fields())
def test_parse_timestamp_matches_field_parser(text):
    assert_same_outcome(parse_timestamp, parse_timestamp_fields, text)


# mostly names the grammar takes, now and then one it rejects or splits elsewhere
_NAMES = st.sampled_from(["E1", "E2", "W0", "v1", "big-AGV"] * 20 + ["E 1", "", "E;1", "a)"])
_ODD_LOCATIONS = ["k_3", "s;1", "s(1", "", "s1 x"]
_SPACING = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def group_specs(draw, i):
    """(location id, fused?, [(entity id, property)]) of the i-th group of a pool."""
    loc = f"s{i}" if draw(st.integers(0, 19)) else draw(st.sampled_from(_ODD_LOCATIONS))
    pairs = draw(st.lists(st.tuples(_NAMES, _NAMES), min_size=1 if draw(st.integers(0, 19)) else 0,
                          max_size=3))
    return loc, not draw(st.integers(0, 3)), pairs


def group_text(draw, spec):
    """A group's text: mostly canonical, so that texts repeat exactly; else
    spaced another way, its pairs perhaps reordered."""
    loc, fused, pairs = spec
    spaced = not draw(st.integers(0, 3))

    def sp():
        return draw(_SPACING) if spaced else ""
    if fused:
        return f"{sp()}{pairs[0][1] if pairs else ''}_{loc}{sp()}"
    if spaced:
        pairs = draw(st.permutations(pairs))
    return ", ".join([f"{sp()}{loc}{sp()}"] + [f"{sp()}({sp()}{e}{sp()},{sp()}{p}{sp()}){sp()}"
                                               for e, p in pairs])


_BAD_TIMES = ["2024/13/01/00:00:00", "2024-02-30T00:00:00", "2024/08/15/24:00:00", "x"]


@st.composite
def timestamp_texts(draw, t):
    """Time t (seconds past a base) in one of the accepted forms, or now and then a bad one."""
    if not draw(st.integers(0, 49)):
        return draw(st.sampled_from(_BAD_TIMES))
    when = datetime(2024, 8, 15) + timedelta(seconds=t)
    fraction = draw(st.sampled_from(["", "", ".000000", ".000001", ".999999"]))
    form = draw(st.sampled_from(["%Y/%m/%d/%H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S"]))
    return when.strftime(form) + fraction


@st.composite
def pooled_records(draw):
    """(pool of group specs, [(seconds, [pool index])]): records of distinct
    groups, now and then one repeated, at times that now and then go back."""
    pool = [draw(group_specs(i)) for i in range(draw(st.integers(1, 5)))]
    records, t = [], 0
    for _ in range(draw(st.integers(1, 8))):
        t += draw(st.integers(-2 if not draw(st.integers(0, 9)) else 0, 90))
        idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
        if not draw(st.integers(0, 14)):
            idx.append(idx[0])
        records.append((t, idx))
    return pool, records


@st.composite
def text_logs(draw):
    """Record lines over a pool of groups, so group texts repeat, exactly or
    spaced and ordered otherwise, and whole lines repeat at new times with
    one label, group texts and separators; labelled and unlabelled, with
    blank and comment lines; at times a last bad line of an earlier line's
    head or group texts, with a bad time or tail, or a repeated location."""
    pool, records = draw(pooled_records())
    lines, used = [], []  # used: (head, group texts) of each record line so far
    for t, idx in records:
        if not draw(st.integers(0, 5)):
            lines.append(draw(st.sampled_from(["", "# note", "   ", "EL1:"])))
        if used and draw(st.booleans()):
            head, chunks = draw(st.sampled_from(used))
        else:
            chunks = [group_text(draw, pool[i]) for i in idx]
            label = draw(st.sampled_from(["", "", "EL1: ", "EL1:", "EL1 : "] * 2 + ["EL2: "]))
            sep = draw(st.sampled_from(["; ", ";", " ; "]))
            head = f"{label}{{{sep.join(chunks)}"
        used.append((head, chunks))
        lines.append(f"{head}, {draw(timestamp_texts(t))}}}")
    if used and draw(st.booleans()):
        head, chunks = draw(st.sampled_from(used))
        bad_time = draw(st.sampled_from(_BAD_TIMES))
        bad_tail = draw(st.sampled_from(["} x", "}}", "", ",", ",}"]))
        lines.append(draw(st.sampled_from([
            f"{head}, {bad_time}}}",
            f"{head}, 2024/08/16/00:00:00{bad_tail}",
            f"{{{'; '.join(chunks)}, {bad_time}}}",
            f"{{{'; '.join(chunks + chunks[:1])}, 2024/08/16/00:00:00}}",
        ])))
    return "\n".join(lines)


@given(text_logs())
@example("{s1, (E1,v1), 2024/08/15/17:40:50}\n{s1, (E1,v1), 2024/13/15/17:40:51}")
@example("{s1, (E1,v1); s2, (E2,v2), 2024/08/15/17:40:50}\n"
         "{s2, (E2,v2); s1, (E1,v1); s2, (E2,v2), 2024/08/15/17:40:51}")
# a bad name in a group before a malformed one: the malformed group is reported
@example("{s1, (E1,v1), 2024/08/15/17:40:50}\n{s1, (E1,v1); v(1_s2; s3, (E(,y), "
         "2024/08/15/17:40:51}")
# a known record head with a bad time, a tail past its "}", a doubled "}}",
# no tail at all, and a label other than the log's
@example("EL1: {s1, (E1,v1), 2024/08/15/17:40:50}\nEL1: {s1, (E1,v1), 2024/13/01/00:00:00}")
@example("{s1, (E1,v1), 2024/08/15/17:40:50}\n{s1, (E1,v1), 2024/08/15/17:40:51} x")
@example("{s1, (E1,v1), 2024/08/15/17:40:50}\n{s1, (E1,v1), 2024/08/15/17:40:51}}")
@example("{s1, (E1,v1), 2024/08/15/17:40:50}\n{s1, (E1,v1),")
@example("EL1: {s1, (E1,v1), 2024/08/15/17:40:50}\nEL1: {s1, (E1,v1), 2024/08/15/17:40:51}\n"
         "EL2: {s1, (E1,v1), 2024/08/15/17:40:52}")
@settings(max_examples=300)
def test_parse_log_matches_per_line_reader(text):
    assert_same_outcome(parse_log, parse_log_per_line, text)


@st.composite
def jsonl_logs(draw):
    """``.jsonl`` lines over a pool of groups, some given again with their
    entities reordered or a prop left out; now and then a value that is not
    a string; at times a last bad line of an earlier line's groups, with a
    bad time or a repeated location."""
    pool, records = draw(pooled_records())

    def as_json(spec):
        loc, _, pairs = spec
        if not draw(st.integers(0, 3)):
            pairs = draw(st.permutations(pairs))
        ents = [{"id": e, "prop": p} if p or draw(st.booleans()) else {"id": e} for e, p in pairs]
        if ents and not draw(st.integers(0, 79)):
            ents[0]["id"] = draw(st.sampled_from([5, None]))
        return {"id": loc, "entities": ents}

    lines, used = [], []
    for t, idx in records:
        if not draw(st.integers(0, 7)):
            lines.append(draw(st.sampled_from(["", "  "])))
        used.append(idx)
        lines.append(json.dumps({"locations": [as_json(pool[i]) for i in idx],
                                 "ts": draw(timestamp_texts(t))}))
    if used and draw(st.booleans()):
        idx = draw(st.sampled_from(used))
        bad_time = draw(st.booleans())
        lines.append(json.dumps({
            "locations": [as_json(pool[i]) for i in (idx if bad_time else idx + idx[:1])],
            "ts": draw(st.sampled_from(_BAD_TIMES)) if bad_time else "2024/08/16/00:00:00"}))
    return "\n".join(lines)


@given(jsonl_logs(), st.sampled_from(["", "EL1"]))
@settings(max_examples=300)
def test_log_from_jsonl_matches_per_line_reader(text, label):
    assert_same_outcome(log_from_jsonl, log_from_jsonl_per_line, text, label)


def jsonl_line(ts, *locations):
    return json.dumps({"locations": [{"id": loc, "entities": [{"id": "E1", "prop": "v1"}]}
                                     for loc in locations], "ts": ts})



@pytest.mark.parametrize("read, text, message", [
    (parse_log, "{s1, (E1,v1), 2024/08/15/17:40:50}\n{s1, (E1,v1), 2024/13/15/17:40:51}\n",
     "line 2: unparseable timestamp '2024/13/15/17:40:51'"),
    (parse_log, "{s1, (E1,v1);s2, (E2,v2), 2024/08/15/17:40:50}\n\n"
                "{s1, (E1,v1);s1, (E1,v1), 2024/08/15/17:40:51}\n",
     "line 3: duplicate location within one record: ['s1', 's1']"),
    (log_from_jsonl, "\n".join([jsonl_line("2024/08/15/17:40:50", "s1"),
                                 jsonl_line("2024/13/15/17:40:51", "s1")]),
     "line 2: unparseable timestamp '2024/13/15/17:40:51'"),
    (log_from_jsonl, "\n".join([jsonl_line("2024/08/15/17:40:50", "s1", "s2"), "",
                                 jsonl_line("2024/08/15/17:40:51", "s1", "s1")]),
     "line 3: duplicate location within one record: ['s1', 's1']"),
], ids=["text_timestamp", "text_duplicate", "jsonl_timestamp", "jsonl_duplicate"])
def test_errors_on_memoized_groups_name_their_line(read, text, message):
    with pytest.raises(DataError) as exc:
        read(text)
    assert str(exc.value) == message


# names from the characters the text grammar uses as separators, plus
# spaces and line breaks and a few characters it takes as they are
_AWKWARD = st.text(st.sampled_from("aabb_,;() \n\u2028{}:#"), max_size=4)
# label, two location ids, then entity id and property pairs
_BASE_NAMES = ["EL1", "s1", "s2", "E-1", "v_1", "x y", "", "E2", "c:d"]


class TestNames:
    @given(st.lists(st.tuples(st.integers(0, len(_BASE_NAMES) - 1), _AWKWARD), max_size=2))
    @settings(max_examples=500)
    def test_every_log_that_builds_reads_back(self, replacements):
        names = list(_BASE_NAMES)
        for slot, name in replacements:
            names[slot] = name
        label, loc1, loc2, *ents = names
        pairs = list(zip(ents[::2], ents[1::2]))
        try:
            log = EventLog((rec(T0, (loc1, pairs[:2]), (loc2, pairs[2:])),
                            rec(T0 + timedelta(seconds=1), (loc2, pairs[:1]))), label)
        except DataError:
            return
        assert parse_log(serialize_log(log)) == log
        assert log_from_jsonl(log_to_jsonl(log), label=log.label) == log

    @pytest.mark.parametrize("build", [
        lambda: Group("s(1", (Entity("E1"),)),
        lambda: Group("s;1", (Entity("E1"),)),
        lambda: Group(" s1", (Entity("E1"),)),
        lambda: Group("s1\u2028", (Entity("E1"),)),
        lambda: Entity("E,1"),
        lambda: Entity(""),
        lambda: Entity("E1 "),
        lambda: Entity("E1", "h\nx"),
        lambda: Entity("E1", "h)"),
        lambda: EventLog((), "E L"),
        lambda: EventLog((), "#x"),
    ], ids=["location_paren", "location_semicolon", "location_space", "location_break",
            "entity_comma", "entity_empty", "entity_space", "prop_break", "prop_paren",
            "label_space", "label_hash"])
    def test_name_outside_grammar_rejected(self, build):
        with pytest.raises(DataError):
            build()

    @pytest.mark.parametrize("line", [
        "{s1, (E\u20281,v), 2024/08/15/17:40:50}",
        "{v(1_s1, 2024/08/15/17:40:50}",
    ], ids=["entity_break", "abbreviated_paren"])
    def test_parse_errors_name_the_line(self, line):
        with pytest.raises(DataError, match="^line 2: entity id "):
            parse_record(line, lineno=2)

    def test_occurrences_to_log_checks_names(self):
        with pytest.raises(DataError, match="location id 's\\(1'"):
            occurrences_to_log([Occurrence(0.0, "s(1", "h", "T1")])


class TestCycles:
    def three_cycle_log(self):
        base = datetime(2024, 8, 15, 10, 0, 0)
        records = []
        for start, others in [(0, [60, 200]), (510, [600, 700]), (1014, [1100])]:
            records.append(rec(base + timedelta(seconds=start), ("s11", [("E1", "h1")])))
            for o in others:
                records.append(rec(base + timedelta(seconds=o), ("s22", [("E2", "h2")])))
        return EventLog(records=tuple(records), label="EL")

    def test_anchor_cycle_times(self):
        cycles = segment_cycles(self.three_cycle_log(), anchor=r"^s11$")
        assert [c.cycle_time for c in cycles] == [510.0, 504.0, 86.0]
        assert [c.index for c in cycles] == [1, 2, 3]

    def test_record_conservation(self):
        log = self.three_cycle_log()
        cycles = segment_cycles(log, anchor=r"^s11$")
        assert sum(len(c.records) for c in cycles) == len(log.records)

    def test_single_record_log(self):
        log = EventLog(records=(rec(T0, ("s1", [("E1", "v1")])),))
        cycles = segment_cycles(log, anchor="s1")
        assert len(cycles) == 1
        assert cycles[0].cycle_time == 0.0

    def test_boundaries_per_record(self):
        log = self.three_cycle_log()
        bounds = [r.timestamp for r in log.records]
        cycles = segment_cycles(log, boundaries=bounds)
        assert len(cycles) == len(log.records)
        assert all(len(c.records) == 1 for c in cycles)

    def test_unmatched_anchor_lists_labels(self):
        log = self.three_cycle_log()
        with pytest.raises(DataError, match="s11"):
            segment_cycles(log, anchor="nothing-matches-this")

    @pytest.mark.parametrize("split", [{}, {"anchor": "s11", "boundaries": [T0]}],
                             ids=["neither", "both"])
    def test_one_split_required(self, split):
        with pytest.raises(DataError, match="exactly one of anchor or boundaries"):
            segment_cycles(self.three_cycle_log(), **split)

    def test_anchor_timestamps_as_boundaries(self):
        log = self.three_cycle_log()
        by_anchor = segment_cycles(log, anchor=r"^s11$")
        bounds = [c.records[0].timestamp for c in by_anchor]
        assert segment_cycles(log, boundaries=bounds) == by_anchor

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8),
           st.lists(st.integers(-2, 14), min_size=1, max_size=5))
    @settings(max_examples=300)
    def test_boundaries_match_linear_scan(self, seconds, half_seconds):
        # records at whole seconds, repeats included; boundaries at half
        # seconds from before the first record to after the last, so some
        # fall on a record and some between two
        log = EventLog(tuple(rec(T0 + timedelta(seconds=s), ("s1", [("E1", "v")]))
                             for s in sorted(seconds)))
        bounds = [T0 + timedelta(seconds=h / 2) for h in half_seconds]
        assert segment_cycles(log, boundaries=bounds) == segment_cycles_scan(log, bounds)

    def test_translation_invariance(self):
        log = self.three_cycle_log()
        shifted = EventLog(
            records=tuple(
                EventRecord(groups=r.groups, timestamp=r.timestamp + timedelta(hours=5))
                for r in log.records
            ),
            label=log.label,
        )
        a = [c.cycle_time for c in segment_cycles(log, anchor=r"^s11$")]
        b = [c.cycle_time for c in segment_cycles(shifted, anchor=r"^s11$")]
        assert a == b


@st.composite
def anchor_logs(draw):
    """Logs over a pool of groups of a few short names, so that groups
    repeat and each anchor below matches some logs and misses others."""
    entity = st.builds(Entity, st.sampled_from(["E1", "E2", "W0"]),
                       st.sampled_from(["", "v1", "v2"]))
    group = st.builds(Group, st.sampled_from(["s1", "s2", "s3"]),
                      st.lists(entity, min_size=1, max_size=2).map(tuple))
    pool = draw(st.lists(group, min_size=1, max_size=5))
    records, t = [], T0
    for _ in range(draw(st.integers(0, 12))):
        t += timedelta(seconds=draw(st.integers(0, 90)))
        groups = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2,
                               unique_by=attrgetter("location_id")))
        records.append(EventRecord(tuple(groups), t))
    return EventLog(tuple(records), "EL1")


@given(anchor_logs(), st.sampled_from(["^s1$", "s", "E1", "v1_s2", "nothing"]))
@settings(max_examples=300)
def test_anchor_segments_match_per_record_oracle(log, anchor):
    assert_same_outcome(segment_cycles, segment_cycles_per_record, log, anchor)


class TestGantt:
    def log3(self):
        return EventLog(
            records=(
                rec(T0, ("s1", [("E1", "v1")])),
                rec(T0 + timedelta(seconds=30), ("s2", [("E3", "h1")])),
                rec(T0 + timedelta(seconds=60), ("s1", [("E1", "v1")])),
            )
        )

    def test_lane_and_tick_counts(self):
        svg = gantt(self.log3(), lane_key="location")
        assert svg.count('class="tick"') == 3
        assert ">s1<" in svg and ">s2<" in svg

    def test_entity_lanes(self):
        svg = gantt(self.log3(), lane_key="entity")
        assert ">v1<" in svg and ">h1<" in svg

    def test_tick_conservation_across_lane_keys(self):
        a = gantt(self.log3(), lane_key="location").count('class="tick"')
        b = gantt(self.log3(), lane_key="entity").count('class="tick"')
        assert a == b == sum(r.event_count for r in self.log3().records)

    def test_empty_log_rejected(self):
        with pytest.raises(DataError):
            gantt(EventLog(records=()), lane_key="location")

    def test_unknown_lane_key_rejected(self):
        with pytest.raises(DataError, match="lane_key must be 'location' or 'entity', got 'x'"):
            gantt(self.log3(), "x")

    def test_deterministic(self):
        assert gantt(self.log3()) == gantt(self.log3())

    def test_last_second_of_the_calendar(self):
        # the axis spans at least 1 s, past 9999-12-31 23:59:59
        log = EventLog(records=(rec(datetime(9999, 12, 31, 23, 59, 59), ("s1", [("E1", "v")])),))
        root = ET.fromstring(gantt(log))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[1:6] == ["23:59:59"] * 4 + ["00:00:00"]

    @given(logs(), st.sampled_from(["location", "entity"]))
    @settings(max_examples=100)
    def test_well_formed_with_one_tick_per_event(self, log, lane_key):
        root = ET.fromstring(gantt(log, lane_key))
        ticks = [line for line in root.iter("{http://www.w3.org/2000/svg}line")
                 if line.get("class") == "tick"]
        assert len(ticks) == sum(r.event_count for r in log.records)

    @pytest.mark.parametrize("lane_key", ["location", "entity"])
    def test_xml_forbidden_characters_never_reach_a_chart(self, lane_key):
        # a lane is a location or a class: each is refused when its record is
        # built, so the chart needs no replacement character
        for c in "\x00\x08\x0e\x1b\ud800\udfff\ufffe\uffff":
            with pytest.raises(DataError, match="^location id " if lane_key == "location"
                               else "^property "):
                if lane_key == "location":
                    rec(T0, (f"s{c}", [("E1", "v")]))
                else:
                    rec(T0, ("s1", [("E1", f"v{c}x")]))

    @pytest.mark.parametrize("lane_key", ["location", "entity"])
    def test_labels_escaped(self, lane_key):
        log = EventLog(records=(rec(T0, ("s<1&", [("E1", "v<&>")])),))
        root = ET.fromstring(gantt(log, lane_key=lane_key))
        texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
        assert "v<&>" in texts
        assert ("s<1&" in texts) == (lane_key == "location")


class TestPrecision:
    def occ(self, t, loc="s1", cls="h1"):
        return Occurrence(start_time=t, location_id=loc, entity_class=cls)

    def test_identity(self):
        stream = [self.occ(1), self.occ(5, loc="s2"), self.occ(9)]
        assert precision(stream, stream, 1.0) == 1.0

    def test_four_of_five(self):
        truth = [self.occ(t) for t in (0, 10, 20, 30)]
        detected = [self.occ(t) for t in (0.5, 10.5, 20.5, 30.5, 99.0)]
        assert precision(detected, truth, 1.0) == pytest.approx(0.8)

    def test_empty_detected(self):
        assert precision([], [self.occ(1)], 1.0) == 1.0

    def test_negative_window_rejected(self):
        with pytest.raises(DataError):
            precision([], [], -1.0)

    def test_window_is_one_difference(self):
        # within the window as t - d, yet after the rounded d + window
        d, t, w = -1.0547053390315764, 0.1290868856916141, 1.1837922247231905
        assert t > d + w and t - d <= w
        assert precision([self.occ(d)], [self.occ(t)], w) == 1.0

    def test_key_must_match(self):
        assert precision([self.occ(0, loc="s1")], [self.occ(0, loc="s2")], 5.0) == 0.0
        assert precision([self.occ(0, cls="h1")], [self.occ(0, cls="h2")], 5.0) == 0.0

    @given(
        d=st.lists(st.floats(0, 100), max_size=12),
        t=st.lists(st.floats(0, 100), max_size=12),
        w1=st.floats(0, 10),
        w2=st.floats(0, 10),
    )
    @settings(max_examples=80)
    def test_monotone_in_window(self, d, t, w1, w2):
        lo, hi = sorted((w1, w2))
        detected = [self.occ(x) for x in sorted(d)]
        truth = [self.occ(x) for x in sorted(t)]
        assert precision(detected, truth, lo) <= precision(detected, truth, hi) + 1e-12


_TIMES = st.one_of(
    st.integers(0, 8).map(lambda k: k / 2),  # repeats and exact window edges
    st.sampled_from([0.1, 0.2, 0.3, 0.1 + 0.2]),
    st.floats(-5, 5),
)
_OCCURRENCES = st.lists(
    st.builds(
        Occurrence,
        start_time=_TIMES,
        location_id=st.sampled_from(["s1", "s2", "s3"]),
        entity_class=st.sampled_from(["h", "v"]),
        track_id=st.sampled_from(["", "T1", "T2"]),
    ),
    max_size=15,
)


@given(
    detected=_OCCURRENCES,
    truth=_OCCURRENCES,
    window=st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.5, 1.0]), st.floats(0, 3)),
)
@example(  # within the window as t - d, yet after the rounded d + window
    detected=[Occurrence(-1.0547053390315764, "s1", "h")],
    truth=[Occurrence(0.1290868856916141, "s1", "h")],
    window=1.1837922247231905,
)
@settings(max_examples=300, deadline=None)
def test_precision_matches_scan_oracle(detected, truth, window):
    assert repr(precision(detected, truth, window)) == repr(
        precision_scan(detected, truth, window)
    )


def test_occurrences_to_log_groups_simultaneous():
    occs = [
        Occurrence(start_time=60.0, location_id="s1", entity_class="v1", track_id="E1"),
        Occurrence(start_time=60.0, location_id="s2", entity_class="h1", track_id="E3"),
        Occurrence(start_time=120.0, location_id="s1", entity_class="v1", track_id="E1"),
    ]
    log = occurrences_to_log(occs, label="EL1")
    assert len(log.records) == 2
    assert [g.location_id for g in log.records[0].groups] == ["s1", "s2"]
    assert log.records[0].timestamp == to_datetime(60.0)


# names by the name rule, or empty, which the occurrence CSV takes in a class or a
# track id column, though not in both of one row
_CSV_NAMES = st.one_of(st.just(""), _names())


@given(st.lists(st.builds(
    Occurrence,
    start_time=st.one_of(st.sampled_from([-0.0, 0.0, 1e-300, 0.1 + 0.2, -1.5, -1e300]),
                         st.floats(allow_nan=False, allow_infinity=False)),
    location_id=_names(),
    entity_class=_CSV_NAMES,
    track_id=_CSV_NAMES,
).filter(lambda occ: occ.entity_class or occ.track_id), max_size=8))
@settings(max_examples=200, deadline=None)
def test_occurrence_csv_round_trip(tmp_path_factory, occurrences):
    path = tmp_path_factory.mktemp("occ") / "occ.csv"
    write_occurrences_csv(path, occurrences)
    # repr tells -0.0 from 0.0, which == does not
    assert list(map(repr, load_occurrences_csv(path))) == list(map(repr, occurrences))


@given(st.lists(st.builds(
    Occurrence,
    # years 1 to 9999, with sub-second parts down to one microsecond
    start_time=st.one_of(st.sampled_from([0.7, 1e-6, -0.5, 1e9 + 0.25, -62135596800.0]),
                         st.floats(-62135596800.0, 253402300799.0)),
    location_id=st.sampled_from(["s1", "s2"]),
    entity_class=st.sampled_from(["h", "v"]),
    track_id=st.sampled_from(["", "T1"]),
), max_size=8))
@settings(max_examples=200, deadline=None)
def test_sub_second_log_round_trip(occurrences):
    log = occurrences_to_log(occurrences, label="EL1")
    assert parse_log(serialize_log(log)) == log
    assert log_from_jsonl(log_to_jsonl(log), label="EL1") == log


@pytest.mark.parametrize("fault", ["interrupted_stream", "failed_rename"])
def test_occurrence_csv_write_is_atomic(tmp_path, monkeypatch, fault):
    path = tmp_path / "occ.csv"
    path.write_text("old\n")

    def interrupted():
        yield Occurrence(1.0, "s1", "h")
        raise OSError("stream interrupted")

    def failed_rename(src, dst):
        raise OSError("rename failed")

    if fault == "failed_rename":
        monkeypatch.setattr(os, "replace", failed_rename)
    with pytest.raises(OSError):
        write_occurrences_csv(path, interrupted() if fault == "interrupted_stream"
                              else [Occurrence(1.0, "s1", "h")])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["occ.csv"]


def test_occurrence_csv_bytes(tmp_path):
    path = tmp_path / "occ.csv"
    write_occurrences_csv(path, [Occurrence(0.5, "s1", "h", "T1")])
    assert path.read_bytes() == b"location_id,entity_class,track_id,start_time\r\ns1,h,T1,0.5\r\n"


def test_import_leaves_numpy_unloaded():
    # the log layer holds no numeric code: events imports eventlog, not the reverse
    code = "import sys, trackmine.eventlog; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(eventlog.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
