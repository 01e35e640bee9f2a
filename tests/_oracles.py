"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths.
"""

import numpy as np

from trackmine.errors import DataError


def power_iteration_oracle(A, iters=200_000, tol=1e-14):
    """Plain power method; reference dominant eigenpair of a symmetric
    PSD matrix."""
    n = A.shape[0]
    x = 1.0 + 1e-6 * np.arange(1, n + 1)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = A @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            break
        x = y / norm
        lam = float(x @ (A @ x))
        if np.linalg.norm(A @ x - lam * x) <= tol:
            break
    i = int(np.argmax(np.abs(x)))
    if x[i] < 0:
        x = -x
    return x, lam


def brute_force_dfg(labels):
    """Count adjacent pairs and occurrences by direct enumeration."""
    edges = {}
    for a, b in zip(labels, labels[1:]):
        edges[(a, b)] = edges.get((a, b), 0) + 1
    counts = {}
    for lbl in labels:
        counts[lbl] = counts.get(lbl, 0) + 1
    return edges, counts


def random_psd(rng, n, gap_max=0.999):
    """Random symmetric PSD matrix with spectral-gap ratio <= gap_max."""
    while True:
        eigs = np.sort(rng.uniform(0.0, 1.0, size=n))
        if eigs[-1] <= 0:
            continue
        if n >= 2 and eigs[-2] / eigs[-1] > gap_max:
            continue
        break
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ np.diag(eigs) @ Q.T


def stochastic_columns_loop(L):
    """Column-stochastic matrix of L built column by column; zero columns
    become uniform."""
    n = L.shape[0]
    S = np.empty_like(L, dtype=float)
    for j in range(n):
        col = L[:, j].sum()
        S[:, j] = 1.0 / n if col == 0 else L[:, j] / col
    return S


def precision_scan(detected, truth, match_window):
    """Reference precision: for each detection in order, scan the sorted
    truth list from its start for the first unused match."""
    if match_window < 0:
        raise DataError("match_window must be >= 0")
    detected = sorted(detected)
    truth = sorted(truth)
    if not detected:
        return 1.0
    matched = 0
    used = [False] * len(truth)
    for d in detected:
        for i, t in enumerate(truth):
            if used[i]:
                continue
            if t.start_time > d.start_time + match_window:
                break
            if (
                t.location_id == d.location_id
                and t.entity_class == d.entity_class
                and abs(t.start_time - d.start_time) <= match_window
            ):
                used[i] = True
                matched += 1
                break
    return matched / len(detected)
