"""The immutable record types: frozen, checked on construction, and hashed,
compared and sorted as their field tuples; those that hold lists, dicts or
arrays are frozen too, and no module declares a record any other way."""

import copy
import importlib
import json
import math
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

import trackmine
from trackmine.errors import DataError
from trackmine.eventlog import Cycle, DetectionConfig, Entity, EventLog, EventRecord, Group
from trackmine.events import DetectionSample, Rect, ZoneSpec
from trackmine.occurrences import Occurrence
from trackmine.procnet import LinkMatrix, NodeLabel, ProcessNetwork
from trackmine.ranking import DispersionStats, RankingResult
from trackmine.sim import Actor, Scenario

T0 = datetime(2024, 8, 15, 10, 0, 0)
T1 = datetime(2024, 8, 15, 10, 0, 10)
ENTITY = Entity("E1", "RP")
GROUP = Group("s1", (ENTITY,))
RECORD = EventRecord((GROUP,), T0)
ZONE = ZoneSpec("s1", "cam1", Rect(0.0, 0.0, 10.0, 10.0), "station")
LABEL = NodeLabel("RP", "s1")

RECORDS = {
    "Occurrence": Occurrence(1.5, "s1", "worker", "T1"),
    "Rect": Rect(1.0, 2.0, 3.0, 4.0),
    "DetectionConfig": DetectionConfig(),
    "Entity": ENTITY,
    "Group": GROUP,
    "EventRecord": RECORD,
    "EventLog": EventLog((RECORD,), "EL1"),
    "Cycle": Cycle(1, (RECORD,), 10.0),
    "NodeLabel": LABEL,
    "ZoneSpec": ZONE,
    "DetectionSample": DetectionSample("cam1", 1.5, "worker", "T1", *Rect(1.0, 2.0, 3.0, 4.0)),
    "Actor": Actor("worker", (("s1", 5.0),), "T1"),
    "DispersionStats": DispersionStats(0.0, 1.0),
}
# records that hold a list, a dict or an array, and so do not hash
HOLDERS = {
    "ProcessNetwork": ProcessNetwork([LABEL], {(LABEL, LABEL): 1.0}, {LABEL: 2}),
    "LinkMatrix": LinkMatrix([LABEL], [[1.0]]),
    "RankingResult": RankingResult("gradient", "authority", None, {LABEL: 1.0}, 0, 0.0),
    "Scenario": Scenario([ZONE], [Actor("worker", (("s1", 5.0),))]),
}


@pytest.mark.parametrize("name", list(RECORDS) + list(HOLDERS))
def test_fields_are_read_only(name):
    record = {**RECORDS, **HOLDERS}[name]
    field = record._fields[0]  # outside the raises block: a type with no _fields fails
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("name", list(RECORDS))
def test_hashes_and_equals_its_field_tuple(name):
    record = RECORDS[name]
    assert hash(record) == hash(tuple(record))
    assert record == tuple(record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_names_each_field(name):
    record = RECORDS[name]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_occurrences_sort_as_field_tuples():
    occs = [Occurrence(2.0, "s1", "h"), Occurrence(1.0, "s2", "h", "T2"),
            Occurrence(1.0, "s2", "h", "T1"), Occurrence(1.0, "s1", "v")]
    assert sorted(occs) == sorted(occs, key=tuple)
    assert sorted(occs)[0] == Occurrence(1.0, "s1", "v")


def test_node_labels_sort_as_field_tuples():
    labels = [NodeLabel("RP", "s2"), NodeLabel("LP", "s3"), NodeLabel("RP", "s1")]
    assert sorted(labels) == sorted(labels, key=tuple)
    assert [lbl.render() for lbl in sorted(labels)] == ["LP_s3", "RP_s1", "RP_s2"]


BAD = 'is not a name: a name is printable, with none of ,;()" and no whitespace at either end'


@pytest.mark.parametrize("build, message", [
    (lambda: Entity(""), "entity id is empty"),
    (lambda: Entity("E1", "a,b"), "property 'a,b' " + BAD),
    (lambda: Group("s;1", (ENTITY,)), "location id 's;1' " + BAD),
    (lambda: Group("s1", ()), "group at 's1' has no entities"),
    (lambda: Group("s1", [ENTITY]),
     "group at 's1': entities [Entity(entity_id='E1', prop='RP')] are not a tuple of Entity"),
    (lambda: Group("s1", ("E1",)), "group at 's1': entities ('E1',) are not a tuple of Entity"),
    (lambda: ZoneSpec("s1", "cam1", (0.0, 0.0, -10.0, 10.0)),
     "box (0.0, 0.0, -10.0, 10.0) is not a Rect"),
    (lambda: EventRecord((), T0), "record has no location groups"),
    (lambda: EventRecord((GROUP, GROUP), T0),
     "duplicate location within one record: ['s1', 's1']"),
    (lambda: EventLog((), "EL-1"),
     "log label 'EL-1' holds a character other than A-Z, a-z, 0-9 and _"),
    (lambda: EventLog((EventRecord((GROUP,), T1), RECORD), "EL1"),
     "event log 'EL1': record 2 at 2024/08/15/10:00:00 is earlier than record 1 at "
     "2024/08/15/10:00:10"),
    (lambda: NodeLabel("", "s1"), "node label needs a non-empty role and location"),
    (lambda: NodeLabel("RP", ""), "node label needs a non-empty role and location"),
    (lambda: LinkMatrix(["a", "b"], [[0, 1], [1, 0]]), "link matrix label 'a' is not a NodeLabel"),
    (lambda: LinkMatrix([LABEL, "a", "a"], [[0] * 3] * 3),
     "link matrix label 'a' is not a NodeLabel"),
    (lambda: Scenario([ZONE, ("s2", "cam1", (0, 0, 1, 1))], [Actor("w", (("s1", 1.0),))]),
     "zone ('s2', 'cam1', (0, 0, 1, 1)) is not a ZoneSpec"),
    (lambda: Scenario([ZONE], [("w", (("s1", 1.0),))]),
     "actor ('w', (('s1', 1.0),)) is not an Actor"),
    (lambda: Scenario([ZONE], [Actor("w", (("s1", "1"),))]), "dwell must be a number"),
    (lambda: Scenario([ZONE], [Actor("w", (("s1", 1.0),))], seed=1.0), "seed must be an integer"),
    (lambda: Scenario([ZONE], [Actor("w", (("s1", 1.0),))], seed=True),
     "seed must be an integer"),
    (lambda: DetectionConfig(min_duration=-1.0), "min_duration must be >= 0"),
    (lambda: DetectionConfig(min_duration=math.nan), "min_duration must be >= 0"),
    (lambda: DetectionConfig(0.0, 1.5), "min_overlap_ratio must be in [0, 1]"),
    (lambda: DetectionConfig(min_overlap_ratio=math.nan), "min_overlap_ratio must be in [0, 1]"),
    (lambda: DetectionConfig(sample_period=0.0), "sample_period must be > 0"),
    (lambda: DetectionConfig(sample_period=math.nan), "sample_period must be > 0"),
    (lambda: DetectionConfig(dedup_window=math.nan), "dedup_window must be >= 0"),
], ids=["entity_id", "property", "location_id", "no_entities", "entities_list",
        "entities_not_entity", "zone_box_not_rect", "no_groups",
        "duplicate_location", "label", "time_order", "node_role", "node_location",
        "matrix_label_not_node_label", "matrix_label_repeated_not_node_label",
        "scenario_zone_not_zone_spec", "scenario_actor_not_actor", "scenario_string_dwell",
        "scenario_float_seed", "scenario_bool_seed",
        "min_duration", "min_duration_nan", "overlap_ratio", "overlap_ratio_nan",
        "sample_period", "sample_period_nan", "dedup_window_nan"])
def test_construction_checks_each_field(build, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        build()


def test_detection_defaults_are_field_defaults():
    assert DetectionConfig._field_defaults == {"min_duration": 3.0, "min_overlap_ratio": 0.10,
                                               "sample_period": 1.0, "dedup_window": 2.0}
    assert DetectionConfig() == (3.0, 0.10, 1.0, 2.0)


MODULES = sorted(f"trackmine.{m.name}" for m in pkgutil.iter_modules(trackmine.__path__))
# every tuple subclass that a trackmine module defines
RECORD_TYPES = sorted(
    (v for m in MODULES for v in vars(importlib.import_module(m)).values()
     if isinstance(v, type) and issubclass(v, tuple) and v.__module__ == m),
    key=lambda cls: cls.__name__)
# for each checked type, fields that its check refuses, set on its entry above
REFUSED = {
    "DetectionConfig": {"min_duration": -1.0},
    "Entity": {"entity_id": ""},
    "Group": {"entities": ()},
    "EventRecord": {"groups": ()},
    "EventLog": {"label": "EL-1"},
    "Rect": {"w": -1.0},
    "DetectionSample": {"w": -1.0},
    "ZoneSpec": {"location_id": ""},
    "NodeLabel": {"location_id": ""},
    "LinkMatrix": {"labels": []},
    "Scenario": {"dropout": 2.0},
}


def test_every_record_type_has_an_entry():
    assert [cls.__name__ for cls in RECORD_TYPES] == sorted({**RECORDS, **HOLDERS})


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_no_record_type_subclasses_another(cls):
    # one class per record: a checked one is a NamedTuple with a _checked hook
    assert cls.__bases__ == (tuple,)


def test_the_checked_types_are_those_with_a_hook():
    assert sorted(cls.__name__ for cls in RECORD_TYPES if hasattr(cls, "_checked")) == \
        sorted(REFUSED)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_make_and_replace_skip_the_check(name):
    record = {**RECORDS, **HOLDERS}[name]
    cls = type(record)
    refused = record._replace(**REFUSED[name])
    made = cls._make(refused)
    for built in (refused, made):
        assert type(built) is cls
        assert all(a is b for a, b in zip(built, refused))
    with pytest.raises(DataError):
        cls(*refused)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name", list(RECORDS) + list(HOLDERS))
def test_copies_and_pickles_to_an_equal_record(name, clone):
    record = {**RECORDS, **HOLDERS}[name]
    other = clone(record)
    assert type(other) is type(record)
    if name == "LinkMatrix":  # an array's == is elementwise
        assert other.labels == record.labels
        assert other.values.dtype == record.values.dtype
        assert other.values.tolist() == record.values.tolist()
    else:
        assert other == record


@pytest.mark.parametrize("modules, unloaded", [
    (MODULES, ["dataclasses"]),
    (["trackmine.procnet"], ["dataclasses", "inspect", "numpy"]),
], ids=["every_module", "procnet"])
def test_imports_leave_modules_unloaded(modules, unloaded):
    # a fresh interpreter: pytest has imported dataclasses, inspect and numpy in this one
    probe = f"import json, sys, {', '.join(modules)}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(trackmine.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert set(modules) <= loaded
    assert sorted(loaded.intersection(unloaded)) == []
