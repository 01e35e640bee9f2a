import os
import re
import tempfile
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmine.errors import DataError
from trackmine.eventlog import Cycle, Entity, EventLog, EventRecord, Group
from trackmine.procnet import (
    LinkMatrix,
    NodeLabel,
    ProcessNetwork,
    build_dfg,
    default_labeler,
    link_matrix,
    load_matrix_csv,
    matrix_to_csv,
    network_to_dot,
)

from _oracles import brute_force_dfg

T0 = datetime(2024, 8, 15, 10, 0, 0)


def cycle_from_labels(labels):
    """One record per label; role is the entity property."""
    records = []
    for i, lbl in enumerate(labels):
        role, loc = lbl.split("_")
        records.append(
            EventRecord(
                groups=(Group(loc, (Entity(f"E{i}", role),)),),
                timestamp=T0 + timedelta(seconds=10 * i),
            )
        )
    return Cycle(index=1, records=tuple(records), cycle_time=10.0 * len(labels))


def read_matrix(text):
    """``load_matrix_csv`` on `text` written to a file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        return load_matrix_csv(path)


class TestBuildDfg:
    def test_aba(self):
        net = build_dfg(cycle_from_labels(["a_s1", "b_s2", "a_s1"]))
        a, b = NodeLabel("a", "s1"), NodeLabel("b", "s2")
        assert net.edges == {(a, b): 1, (b, a): 1}
        assert net.activities == {a: 2, b: 1}
        assert net.nodes == [a, b]

    def test_single_event(self):
        net = build_dfg(cycle_from_labels(["a_s1"]))
        assert net.edges == {}
        assert len(net.nodes) == 1

    def test_self_loop(self):
        net = build_dfg(cycle_from_labels(["a_s1", "a_s1"]))
        a = NodeLabel("a", "s1")
        assert net.edges == {(a, a): 1}

    def test_multi_entity_record_order(self):
        record = EventRecord(
            groups=(
                Group("s1", (Entity("E1", "v1"), Entity("E3", "h1"))),
                Group("s2", (Entity("E2", "v2"),)),
            ),
            timestamp=T0,
        )
        cycle = Cycle(index=1, records=(record,), cycle_time=0.0)
        net = build_dfg(cycle)
        assert net.nodes == [
            NodeLabel("v1", "s1"), NodeLabel("h1", "s1"), NodeLabel("v2", "s2")
        ]
        assert sum(net.edges.values()) == 2

    def test_role_abbreviations(self):
        record = EventRecord(
            groups=(Group("s14", (Entity("E1", "worker-right"),)),), timestamp=T0
        )
        assert default_labeler(record) == [NodeLabel("RP", "s14")]

    @given(st.lists(st.sampled_from(["a_s1", "b_s2", "c_s3", "a_s2"]), min_size=1,
                    max_size=30))
    @settings(max_examples=60)
    def test_matches_brute_force(self, labels):
        net = build_dfg(cycle_from_labels(labels))
        edges, counts = brute_force_dfg(labels)
        got_edges = {
            (f"{a.entity_role}_{a.location_id}", f"{b.entity_role}_{b.location_id}"): w
            for (a, b), w in net.edges.items()
        }
        got_counts = {lbl.render(): c for lbl, c in net.activities.items()}
        assert got_edges == edges
        assert got_counts == counts
        assert sum(net.edges.values()) == len(labels) - 1

    def test_independent_of_timestamps(self):
        labels = ["a_s1", "b_s2", "a_s1", "c_s3"]
        c1 = cycle_from_labels(labels)
        c2 = Cycle(
            index=1,
            records=tuple(
                EventRecord(groups=r.groups, timestamp=T0 + timedelta(seconds=i * 999))
                for i, r in enumerate(c1.records)
            ),
            cycle_time=5.0,
        )
        n1, n2 = build_dfg(c1), build_dfg(c2)
        assert n1.edges == n2.edges and n1.activities == n2.activities


class TestLinkMatrix:
    def test_tabulation(self):
        a, b = NodeLabel("a", "s1"), NodeLabel("b", "s2")
        net = build_dfg(cycle_from_labels(["a_s1", "b_s2", "a_s1", "b_s2"]))
        net = net._replace(edges={(a, b): 2.0})
        lm = link_matrix(net)
        assert lm.labels == [a, b]
        assert lm.values.tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_empty_network_rejected(self):
        with pytest.raises(DataError, match="cannot build a link matrix from an empty network"):
            link_matrix(ProcessNetwork([], {}, {}))

    def test_no_nodes_rejected(self):
        # a matrix with no nodes has nothing to rank: every solver would divide by n = 0
        with pytest.raises(DataError, match="link matrix has no nodes"):
            LinkMatrix([], np.zeros((0, 0)))

    def test_single_node(self):
        lm = link_matrix(build_dfg(cycle_from_labels(["a_s1"])))
        assert lm.values.tolist() == [[0.0]]

    def test_weight_sum_matches_sequence(self):
        labels = ["a_s1", "b_s2", "a_s1", "a_s1", "c_s3"]
        lm = link_matrix(build_dfg(cycle_from_labels(labels)))
        assert lm.values.sum() == len(labels) - 1

    def test_csv_round_trip_paper_style_matrix(self):
        labels = [NodeLabel("x", str(i + 1)) for i in range(3)]
        values = np.array([[1.01, 0.01, 0.0], [0.01, 1.0, 0.0], [0.0, 0.0, 0.9]])
        edges = {(labels[i], labels[j]): float(values[i, j])
                 for i in range(3) for j in range(3) if values[i, j]}
        net = ProcessNetwork(nodes=labels, edges=edges, activities={})
        again = read_matrix(matrix_to_csv(net))
        assert again.labels == labels
        assert np.array_equal(again.values, values)

    @given(st.data())
    @settings(max_examples=80)
    def test_csv_round_trip_is_link_matrix(self, data):
        label = st.builds(NodeLabel, st.sampled_from(["P", "RP", "big_AGV"]),
                          st.from_regex(r"[a-z][0-9]{1,2}", fullmatch=True))
        nodes = data.draw(st.lists(label, min_size=1, max_size=6, unique=True))
        edges = data.draw(st.dictionaries(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            st.integers(1, 500) | st.floats(0.0, 1e300, allow_subnormal=True)))
        net = ProcessNetwork(nodes=nodes, edges=edges, activities={})
        lm, again = link_matrix(net), read_matrix(matrix_to_csv(net))
        assert again.labels == lm.labels
        assert again.values.tolist() == lm.values.tolist()

    def test_edge_weights_at_label_indices(self):
        net = build_dfg(cycle_from_labels(["a_s1", "b_s2", "a_s1", "b_s2", "c_s3"]))
        lm = link_matrix(net)
        assert lm.labels == net.nodes
        index = {lbl: i for i, lbl in enumerate(lm.labels)}
        expected = np.zeros((3, 3))
        for (a, b), w in net.edges.items():
            expected[index[a], index[b]] = w
        assert np.array_equal(lm.values, expected)

    def test_repeated_label_rejected(self):
        a, b = NodeLabel("P", "s1"), NodeLabel("P", "s2")
        with pytest.raises(DataError, match="label P_s1 appears more than once"):
            LinkMatrix(labels=[a, b, a], values=np.eye(3))

    def test_shape_mismatch_rejected(self):
        labels = [NodeLabel("P", f"s{i}") for i in range(3)]
        with pytest.raises(DataError, match=r"shape \(2, 2\) does not match 3 labels"):
            LinkMatrix(labels=labels, values=np.eye(2))

    def test_bad_csv(self):
        with pytest.raises(DataError):
            read_matrix("not,a\nmatrix,1\n")


def test_dot_export_lists_all_edges():
    net = build_dfg(cycle_from_labels(["a_s1", "b_s2", "a_s1"]))
    dot = network_to_dot(net)
    assert '"a_s1" -> "b_s2"' in dot and '"b_s2" -> "a_s1"' in dot
    assert dot.startswith("digraph")


def test_dot_strings_read_back_as_the_names():
    # a role holding a backslash, and one ending in a backslash, which would
    # otherwise escape the closing quote; no name holds a double quote
    a, b = "R\\P_s11", "R\\_s12"
    dot = network_to_dot(build_dfg(cycle_from_labels([a, b])))
    strings = [re.sub(r"\\(.)", r"\1", s) for s in re.findall(r'"((?:[^"\\]|\\.)*)"', dot)]
    assert strings == [a, f"{a} (1)", b, f"{b} (1)", a, b, "1"]
    assert '"R\\\\P_s11" [label="R\\\\P_s11 (1)"];' in dot
    with pytest.raises(DataError, match="^property 'R\"P' is not a name: "):
        cycle_from_labels(['R"P_s11'])
