"""Directly-follows process networks per cycle and their matrix form.

numpy is imported only where a ``LinkMatrix`` is built, so the network,
its CSV and DOT writers and ``compare_topk`` run without it."""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DataError
from .eventlog import Cycle, EventRecord

if TYPE_CHECKING:
    import numpy as np

# worker/vehicle role abbreviations used by the default labeler
_DEFAULT_ROLES = {
    "worker-left": "LP",
    "worker-right": "RP",
    "worker": "P",
    "big-AGV": "BV",
    "small-AGV": "SV",
}


@dataclass(frozen=True, order=True)
class NodeLabel:
    entity_role: str
    location_id: str

    def __post_init__(self):
        if not self.entity_role or not self.location_id:
            raise DataError("node label needs a non-empty role and location")

    def render(self) -> str:
        return f"{self.entity_role}_{self.location_id}"

    @classmethod
    def parse(cls, text: str) -> "NodeLabel":
        if "_" not in text:
            raise DataError(f"node label {text!r} is not of the form role_location")
        role, loc = text.rsplit("_", 1)
        return cls(role, loc)


def default_labeler(record: EventRecord) -> list[NodeLabel]:
    """One node per (entity, location) pair, in record order."""
    labels = []
    for g in record.groups:
        for e in g.entities:
            role = _DEFAULT_ROLES.get(e.prop or e.entity_id, e.prop or e.entity_id)
            labels.append(NodeLabel(role, g.location_id))
    return labels


@dataclass
class ProcessNetwork:
    nodes: list[NodeLabel]
    edges: dict[tuple[NodeLabel, NodeLabel], float]
    activities: dict[NodeLabel, int]

    def __post_init__(self):
        known = set(self.nodes)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise DataError(f"edge endpoint {a.render()}->{b.render()} not in node list")


@dataclass
class LinkMatrix:
    labels: list[NodeLabel]
    values: np.ndarray  # square, non-negative; rows of floats are converted

    def __post_init__(self):
        import numpy as np
        self.values = np.asarray(self.values, dtype=float)
        n = len(self.labels)
        if self.values.shape != (n, n):
            raise DataError(
                f"link matrix shape {self.values.shape} does not match {n} labels"
            )
        repeated = [lbl.render() for lbl, count in Counter(self.labels).items() if count > 1]
        if repeated:
            raise DataError(f"link matrix label {repeated[0]} appears more than once")
        bad = np.argwhere(~np.isfinite(self.values) | (self.values < 0))
        if len(bad):
            i, j = bad[0]
            raise DataError(
                f"link matrix entry ({self.labels[i].render()}, {self.labels[j].render()}) "
                f"is {float(self.values[i, j])!r}; entries must be finite and >= 0"
            )


def build_dfg(cycle: Cycle) -> ProcessNetwork:
    """Mine the weighted directly-follows graph of one cycle.

    Nodes appear in first-appearance order; each adjacent pair in the
    labeled event sequence adds one to its edge, including self-loops.
    """
    sequence = [lbl for record in cycle.records for lbl in default_labeler(record)]
    activities = dict(Counter(sequence))
    edges = dict(Counter(zip(sequence, sequence[1:])))
    return ProcessNetwork(nodes=list(activities), edges=edges, activities=activities)


def activity_ranking(net: ProcessNetwork, k: int) -> list[tuple[NodeLabel, int]]:
    """Top-k nodes by occurrence count, ties broken by rendered label."""
    if k < 1:
        raise DataError("k must be >= 1")
    ranked = sorted(net.activities.items(), key=lambda kv: (-kv[1], kv[0].render()))
    return ranked[:k]


def compare_topk(a, b, k: int) -> dict:
    """Set algebra on two ranked label lists truncated to k."""
    def labels(seq):
        out = []
        for item in seq:
            lbl = item[0] if isinstance(item, tuple) else item
            out.append(lbl.render() if isinstance(lbl, NodeLabel) else str(lbl))
        return out

    if k < 1:
        raise DataError("k must be >= 1")
    la, lb = labels(a), labels(b)
    if k > len(la) or k > len(lb):
        raise DataError(f"k={k} exceeds a list length ({len(la)}, {len(lb)})")
    sa, sb = set(la[:k]), set(lb[:k])
    return {
        "common": sa & sb,
        "only_a": sa - sb,
        "only_b": sb - sa,
        "jaccard": len(sa & sb) / len(sa | sb),
    }


def link_matrix(net: ProcessNetwork) -> LinkMatrix:
    if not net.nodes:
        raise DataError("cannot build a link matrix from an empty network")
    import numpy as np
    idx = {lbl: i for i, lbl in enumerate(net.nodes)}
    n = len(net.nodes)
    L = np.zeros((n, n))
    for (a, b), w in net.edges.items():
        L[idx[a], idx[b]] = w
    return LinkMatrix(labels=list(net.nodes), values=L)


# ---------------------------------------------------------------------------
# export / import

def matrix_to_csv(net: ProcessNetwork) -> str:
    """The dense ``link_matrix(net)`` as a labeled CSV: first row and first
    column carry rendered node labels; ``matrix_from_csv`` reads it back."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [lbl.render() for lbl in net.nodes])
    for a in net.nodes:
        writer.writerow([a.render()] + [repr(float(net.edges.get((a, b), 0.0)))
                                        for b in net.nodes])
    return buf.getvalue()


def matrix_from_csv(text: str) -> LinkMatrix:
    rows_in = csv.reader(io.StringIO(text))
    try:
        reader = list(rows_in)
    except csv.Error as exc:  # a field over csv's size limit
        raise DataError(f"matrix CSV line {rows_in.line_num}: {exc}") from None
    if not reader or len(reader[0]) < 2:
        raise DataError("matrix CSV needs a label header row")
    col_labels = [NodeLabel.parse(t) for t in reader[0][1:]]
    rows = []
    row_labels = []
    for lineno, row in enumerate(reader[1:], start=2):
        if not row:
            continue
        if len(row) != len(col_labels) + 1:
            raise DataError(f"matrix CSV line {lineno}: expected {len(col_labels) + 1} cells")
        row_labels.append(row[0])
        try:
            rows.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataError(f"matrix CSV line {lineno}: {exc}") from None
    if row_labels != reader[0][1:]:
        raise DataError("matrix CSV row labels do not match column labels")
    return LinkMatrix(labels=col_labels, values=rows)


def network_to_dot(net: ProcessNetwork) -> str:
    lines = ["digraph process {"]
    for lbl in net.nodes:
        lines.append(f'  "{lbl.render()}" [label="{lbl.render()} ({net.activities.get(lbl, 0)})"];')
    for (a, b), w in sorted(net.edges.items(), key=lambda kv: (kv[0][0].render(), kv[0][1].render())):
        weight = int(w) if float(w).is_integer() else w
        lines.append(f'  "{a.render()}" -> "{b.render()}" [label="{weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
