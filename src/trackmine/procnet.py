"""Directly-follows process networks per cycle and their matrix form.

numpy is imported only where a ``LinkMatrix`` is built, so the network,
its CSV and DOT writers and ``compare_topk`` run without it."""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import DataError
from .eventlog import Cycle, EventRecord, _csv_rows, checked

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


@checked
class NodeLabel(NamedTuple):
    """An immutable (role, location) node; ``_make`` and ``_replace`` skip the ``_checked`` hook."""

    entity_role: str
    location_id: str

    def _checked(self):
        if not self.entity_role or not self.location_id:
            raise DataError("node label needs a non-empty role and location")
        return self

    def render(self) -> str:
        return f"{self.entity_role}_{self.location_id}"

    @classmethod
    def parse(cls, text: str) -> "NodeLabel":
        """The label split at its last "_" that leaves both parts non-empty: a role or a
        location may hold "_", so the split may differ from the label rendered, but it
        renders back to `text`."""
        cut = text.rfind("_", 1, len(text) - 1)
        if cut < 0:
            raise DataError(f"node label {text!r} is not of the form role_location")
        return cls(text[:cut], text[cut + 1:])


def default_labeler(record: EventRecord, built: dict | None = None) -> list[NodeLabel]:
    """One node per (entity, location) pair, in record order.  `built` maps
    each (role, location) pair labelled so far to its label, which is then
    checked and built only once over the records that share the dict."""
    built = {} if built is None else built
    labels = []
    for g in record.groups:
        for e in g.entities:
            name = e.prop or e.entity_id
            key = (_DEFAULT_ROLES.get(name, name), g.location_id)
            label = built.get(key)
            if label is None:
                # Entity and Group refuse an empty id or location: NodeLabel's check cannot fail
                label = built[key] = NodeLabel._make(key)
            labels.append(label)
    return labels


class ProcessNetwork(NamedTuple):
    nodes: list[NodeLabel]
    edges: dict[tuple[NodeLabel, NodeLabel], float]
    activities: dict[NodeLabel, int]


@checked
class LinkMatrix(NamedTuple):
    """A square link matrix, whose ``_checked`` hook checks that each label is a distinct
    ``NodeLabel`` and makes its values a float array and checks them; ``_make`` and
    ``_replace`` skip the hook."""

    labels: list[NodeLabel]
    values: np.ndarray  # square, non-negative; rows of floats are converted

    def _checked(self):
        import numpy as np
        labels = self.labels
        values = np.asarray(self.values, dtype=float)
        n = len(labels)
        if n == 0:
            raise DataError("link matrix has no nodes")
        if not all(map(isinstance, labels, repeat(NodeLabel))):
            bad = next(lbl for lbl in labels if not isinstance(lbl, NodeLabel))
            raise DataError(f"link matrix label {bad!r} is not a NodeLabel")
        if values.shape != (n, n):
            raise DataError(f"link matrix shape {values.shape} does not match {n} labels")
        repeated = [lbl.render() for lbl, count in Counter(labels).items() if count > 1]
        if repeated:
            raise DataError(f"link matrix label {repeated[0]} appears more than once")
        ok = (values >= 0) & (values < np.inf)  # a nan fails both
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise DataError(
                f"link matrix entry ({labels[i].render()}, {labels[j].render()}) "
                f"is {float(values[i, j])!r}; entries must be finite and >= 0"
            )
        return self._replace(values=values)


def build_dfg(cycle: Cycle) -> ProcessNetwork:
    """Mine the weighted directly-follows graph of one cycle.

    Nodes appear in first-appearance order; each adjacent pair in the
    labeled event sequence adds one to its edge, including self-loops.
    """
    built: dict[tuple[str, str], NodeLabel] = {}
    sequence = [lbl for record in cycle.records for lbl in default_labeler(record, built)]
    activities = dict(Counter(sequence))
    edges = dict(Counter(zip(sequence, sequence[1:])))
    return ProcessNetwork(nodes=list(activities), edges=edges, activities=activities)


def compare_topk(a, b, k: int) -> dict:
    """Set algebra on two ranked lists truncated to k, over rendered labels;
    an item is a NodeLabel, a rendered label or a (label, score) pair."""
    def labels(seq):
        out = []
        for item in seq:
            # a (label, score) pair; a NodeLabel is a tuple too
            if isinstance(item, tuple) and not isinstance(item, NodeLabel):
                item = item[0]
            out.append(item.render() if isinstance(item, NodeLabel) else str(item))
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
    column carry rendered node labels; ``load_matrix_csv`` reads it back.
    A label joins two names of a log's records, which keep
    ``eventlog.name_ok``, so no field needs quoting."""
    rows = [["", *(lbl.render() for lbl in net.nodes)]]
    rows += ([a.render(), *(repr(float(net.edges.get((a, b), 0.0))) for b in net.nodes)]
             for a in net.nodes)
    return "".join(",".join(row) + "\n" for row in rows)


def load_matrix_csv(path) -> LinkMatrix:
    """The labeled CSV that ``matrix_to_csv`` writes; errors name the file, and a line at fault."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # the header is a corner cell, which an empty file lacks, and then the column labels
        rows = _csv_rows(fh, path, lambda corner="", *labels: [NodeLabel.parse(t) for t in labels],
                         lambda label, *cells: (label, [float(v) for v in cells]))
        labels = next(rows)
        if not labels:
            raise DataError(f"{path}: matrix CSV needs a label header row")
        rows = list(rows)
    if [label for label, _ in rows] != [lbl.render() for lbl in labels]:
        raise DataError(f"{path}: matrix CSV row labels do not match column labels")
    return LinkMatrix(labels=labels, values=[cells for _, cells in rows])


def _dot_string(text: str) -> str:
    """A DOT quoted string: each backslash, then each double quote, escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def network_to_dot(net: ProcessNetwork) -> str:
    lines = ["digraph process {"]
    for lbl in net.nodes:
        label = _dot_string(f"{lbl.render()} ({net.activities.get(lbl, 0)})")
        lines.append(f"  {_dot_string(lbl.render())} [label={label}];")
    for (a, b), w in sorted(net.edges.items(), key=lambda kv: (kv[0][0].render(), kv[0][1].render())):
        weight = int(w) if float(w).is_integer() else w
        head, tail = _dot_string(a.render()), _dot_string(b.render())
        lines.append(f'  {head} -> {tail} [label="{weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
