"""Spectral node ranking on link matrices.

Three solvers share one contract: score every node by the dominant
eigenvector of a matrix derived from the weighted directly-follows
network.  Each is one direct solve:

* ``hits_pm_norm`` — ``np.linalg.eigh`` of the primitivity-adjusted
  symmetric matrix ``alpha * B + (1 - alpha) / n * ones``, where ``B`` is
  the authority matrix ``L.T @ L`` or the hub matrix ``L @ L.T``.  Past
  ``FOLD_ABOVE`` nodes, the one solve ``_dominant_eigvec`` first folds that
  matrix to a smaller quotient over its isolated nodes, then runs ``eigh``
  on the quotient and lifts the vector back.
* ``gradient`` — ``hits_pm_norm`` at ``alpha = 1``: ``eigh`` of ``B``
  itself, whose dominant pair ``grad_dominant_eigvec`` returns.
* ``pagerank_norm`` — the linear solve ``(I - alpha * S) x = (1 - alpha) / n``
  for the column-stochastic ``S`` of ``L``.

The tolerance scales with the matrix, ``tol = RTOL * max(1, max|M_ij|)``,
as the rounding of a backward-stable ``eigh`` does.  When eigenvalues
within ``tol`` of the largest make the dominant vector non-unique, the
solvers take the uniform vector projected onto their eigenspace, so
relabelling the nodes permutes the scores.  The unit vector v is certified,
``||M v - lam v|| <= tol``, or ``ConvergenceError`` is raised (exit 4 of
``trackmine rank``).  ``rank --json`` reports that ``residual``, the
eigenspace's ``multiplicity`` and its ``gap`` to the next eigenvalue;
``iterations`` is 0.

A node's score is the square of its component of the unit vector, so the
scores sum to 1 and their square roots are the vector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DataError
# compare_topk stays reachable as ranking.compare_topk
from .procnet import LinkMatrix, NodeLabel, compare_topk  # noqa: F401

SYMMETRY_TOL = 1e-12
RTOL = 1e-10  # certification tolerance per unit of max(1, max|M_ij|)
# hits_pm_norm folds a base matrix of more nodes than this; the measured
# crossover of the folded and the dense solve lies between 31 and 36 nodes
FOLD_ABOVE = 35


class DispersionStats(NamedTuple):
    shannon_entropy: float
    participation_ratio: float


class RankingResult(NamedTuple):
    algorithm: str  # gradient | hits_pm_norm | pagerank_norm
    matrix_kind: str  # authority | hub | stochastic
    alpha: float | None
    scores: dict[NodeLabel, float]
    iterations: int  # 0: every solve is direct
    residual: float
    multiplicity: int = 1  # dimension of the top eigenspace the vector came from
    # (lam_1 - lam_next) / scale, lam_next the largest eigenvalue outside the top
    # eigenspace; None when that eigenspace is the whole space, and for pagerank_norm
    gap: float | None = None


def authority_matrix(lm: LinkMatrix) -> np.ndarray:
    """Symmetrised authority matrix L.T @ L; symmetric PSD.  An entry past
    the float range is inf, which ``hits_pm_norm`` refuses."""
    with np.errstate(over="ignore"):
        M = lm.values.T @ lm.values
        return (M + M.T) / 2.0


def hub_matrix(lm: LinkMatrix) -> np.ndarray:
    """Symmetrised hub matrix L @ L.T; symmetric PSD (see ``authority_matrix``)."""
    with np.errstate(over="ignore"):
        M = lm.values @ lm.values.T
        return (M + M.T) / 2.0


def _base_matrix(lm: LinkMatrix, kind: str) -> np.ndarray:
    if kind == "authority":
        return authority_matrix(lm)
    if kind == "hub":
        return hub_matrix(lm)
    raise DataError(f"kind must be 'authority' or 'hub', got {kind!r}")


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _certify(M: np.ndarray, v: np.ndarray, scale: float) -> tuple[float, float]:
    """Rayleigh quotient lam of the unit vector v and the residual
    ||M v - lam v||; raises ConvergenceError unless it is <= RTOL * scale.
    A finite M whose dominant eigenvalue is past the float range overflows
    lam or the residual to inf or nan, and that error says so."""
    with np.errstate(over="ignore", invalid="ignore"):
        Mv = M @ v
        lam = float(v @ Mv)
        res = float(np.linalg.norm(Mv - lam * v))
    if not (math.isfinite(lam) and math.isfinite(res)):
        raise ConvergenceError("dominant eigenvalue is past the float range")
    if not res <= RTOL * scale:
        raise ConvergenceError(f"dominant eigenvector residual {res:.3e} exceeds "
                               f"tol={RTOL * scale:.3e}")
    return lam, res


def _scale(A: np.ndarray, error: str = "matrix has a non-finite entry") -> float:
    """``max(1, max|A_ij|)``, the unit of the tolerance; raises
    ``DataError(error)`` on a non-finite entry."""
    top = float(np.abs(A).max())
    if not math.isfinite(top):
        raise DataError(error)
    return max(1.0, top)


def _dominant_eigvec(M: np.ndarray, scale: float, base: np.ndarray | None = None,
                     alpha: float = 1.0):
    """(unit vector, eigenvalue, residual, multiplicity, gap) of a finite
    symmetric matrix M of the given ``_scale``; see ``grad_dominant_eigvec``.

    Given ``base``, with ``M = alpha * base + c * ones`` and ``c = (1 - alpha) / n``,
    and more than ``FOLD_ABOVE`` nodes, ``eigh`` runs on a smaller quotient Q
    of M.  A node is isolated when its row of ``base`` has no nonzero entry
    off the diagonal, and the isolated nodes with one diagonal value d_S form
    a class S.  The unit indicator of each class and the unit vector of each
    linked node span an invariant subspace of M that holds the all-ones
    vector, so the top vector of M's restriction Q to it, lifted back, is M's:
    ``Q = alpha * blockdiag(diag(d_S), B_LL) + c * w w^T``, with w = sqrt|S|
    per class, then 1 per linked node.  The rest of the space is each class's
    |S| - 1 vectors orthogonal to its indicator, of eigenvalue ``alpha * d_S``.
    The nodes of one class get one score."""
    n = M.shape[0]
    Q, folded = M, []  # folded: (alpha * d_S, |S| - 1) per class of two or more nodes
    if base is not None and n > FOLD_ABOVE:
        d = base.diagonal()
        linked = (base != 0).sum(axis=0) > (d != 0)  # base is symmetric: a column counts its row
        keep, lone = np.flatnonzero(linked), np.flatnonzero(~linked)
        classes: dict[float, int] = {}  # diagonal value -> class, in first-seen order
        cls = [classes.setdefault(x, len(classes)) for x in d[lone].tolist()]
        m = len(classes)
        sizes = np.bincount(cls, minlength=m)
        root = np.sqrt(sizes)
        w = np.ones(m + len(keep))
        w[:m] = root
        Q = w[:, None] * ((1.0 - alpha) / n * w)
        Q[m:, m:] = M.take(keep, 0).take(keep, 1)  # c + alpha * B_LL, as M holds it
        Q.reshape(-1)[:m * (len(w) + 1):len(w) + 1] += alpha * np.array(list(classes))
        folded = [(alpha * x, size - 1) for x, size in zip(classes, sizes.tolist()) if size > 1]
    vals, vecs = np.linalg.eigh(Q)
    floor = vals[-1] - RTOL * scale
    top = vecs[:, vals >= floor]
    # the all-ones vector projected onto the top eigenspace
    v = top @ (top.sum(axis=0) if Q is M else w @ top)
    norm = float(np.linalg.norm(v))
    # the projection is nonzero when M is non-negative (Perron-Frobenius);
    # otherwise eigh's own top vector stands in
    v = v / norm if norm > 0 else top[:, -1]
    if Q is not M:  # lift Q's vector back to M's nodes
        q, v = v, np.empty(n)
        v[keep] = q[m:]
        v[lone] = (q[:m] / root)[cls]
    v = _fix_sign(v)
    lam, res = _certify(M, v, scale)
    multiplicity = top.shape[1]
    below = [vals[-multiplicity - 1]] if multiplicity < len(vals) else []
    for value, extra in folded:
        if value >= floor:  # the class's other |S| - 1 eigenvalues, which Q lacks
            multiplicity += extra
        else:
            below.append(value)
    gap = float((vals[-1] - max(below)) / scale) if below else None
    return v, lam, res, multiplicity, gap


def grad_dominant_eigvec(S: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Dominant eigenpair of a symmetric matrix from one ``np.linalg.eigh``:
    the uniform vector projected onto the eigenspace of every eigenvalue
    within ``tol = RTOL * max(1, max|S_ij|)`` of the largest.  Returns (unit
    vector, eigenvalue, iterations=0) with ``||S v - lam v|| <= tol``, or
    raises ``ConvergenceError``; v's largest-magnitude component is positive.
    """
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DataError("symmetric matrix must be square and non-empty")
    scale = _scale(A)
    if np.abs(A - A.T).max() > SYMMETRY_TOL * scale:
        raise DataError("matrix is not symmetric")
    vec, lam, _, _, _ = _dominant_eigvec(A, scale)
    return vec, lam, 0


def _as_result(
    lm: LinkMatrix, algorithm, matrix_kind, alpha, vec, residual, multiplicity=1, gap=None
) -> RankingResult:
    scores = dict(zip(lm.labels, (vec * vec).tolist()))
    return RankingResult(algorithm, matrix_kind, alpha, scores, 0, residual, multiplicity, gap)


def hits_pm_norm(lm: LinkMatrix, alpha: float = 0.8, kind: str = "authority") -> RankingResult:
    """Dominant eigenvector of the primitivity-adjusted authority or hub
    matrix.  At ``alpha = 1`` the matrix is the base matrix: its entries
    are non-negative, so ``1.0 * x + 0.0`` is ``x``."""
    if not 0.0 < alpha <= 1.0:
        raise DataError(f"alpha must be in (0, 1], got {alpha}")
    base = _base_matrix(lm, kind)
    M = alpha * base + (1.0 - alpha) / base.shape[0]
    # L is finite, so only an overflowed base entry makes M non-finite
    scale = _scale(M, f"{kind} matrix entry is past the float range")
    vec, _, res, multiplicity, gap = _dominant_eigvec(M, scale, base, alpha)
    return _as_result(lm, "hits_pm_norm", kind, alpha, vec, res, multiplicity, gap)


def stochastic_matrix(lm: LinkMatrix, alpha: float) -> np.ndarray:
    """Teleport-adjusted column-stochastic matrix of L; zero columns
    become uniform."""
    L = lm.values
    n = L.shape[0]
    with np.errstate(over="ignore"):
        col_sums = L.sum(axis=0)
    if not np.isfinite(col_sums).all():
        raise DataError("link matrix column sum is past the float range")
    zero = col_sums == 0
    S = np.where(zero, 1.0 / n, L / np.where(zero, 1.0, col_sums))
    return alpha * S + (1.0 - alpha) / n


def pagerank_norm(lm: LinkMatrix, alpha: float = 0.8) -> RankingResult:
    """Perron vector of the teleport-adjusted column-stochastic matrix
    ``G = alpha * S + (1 - alpha) / n * ones``, L2-normalised.  G is
    positive, so the vector is positive and unique; its scores form a
    probability distribution."""
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    G = stochastic_matrix(lm, alpha)
    n = G.shape[0]
    teleport = (1.0 - alpha) / n
    # G x = x with sum(x) = 1 is (I - alpha * S) x = teleport * ones(n)
    x = np.linalg.solve(np.eye(n) - (G - teleport), np.full(n, teleport))
    vec = x / np.linalg.norm(x)
    _, res = _certify(G, vec, 1.0)  # every entry of G is at most 1
    return _as_result(lm, "pagerank_norm", "stochastic", alpha, vec, res)


def gradient_ranking(lm: LinkMatrix, kind: str = "authority") -> RankingResult:
    """Dominant eigenvector of the authority or hub matrix itself:
    ``hits_pm_norm`` at ``alpha = 1``, reported with no alpha."""
    return hits_pm_norm(lm, 1.0, kind)._replace(algorithm="gradient", alpha=None)


def rank_nodes(
    lm: LinkMatrix,
    algorithm: str = "gradient",
    kind: str = "authority",
    alpha: float = 0.8,
    k: int = 10,
) -> tuple[list[tuple[NodeLabel, float]], RankingResult, DispersionStats]:
    """Top-k nodes under one algorithm; descending score, ties by label."""
    if k < 1:
        raise DataError("k must be >= 1")
    if algorithm == "gradient":
        result = gradient_ranking(lm, kind=kind)
    elif algorithm == "hits_pm_norm":
        result = hits_pm_norm(lm, alpha=alpha, kind=kind)
    elif algorithm == "pagerank_norm":
        result = pagerank_norm(lm, alpha=alpha)
    else:
        raise DataError(f"unknown algorithm {algorithm!r}")
    scores = result.scores
    labels = sorted(scores, key=NodeLabel.render)
    values = [scores[lbl] for lbl in labels]
    # a stable sort keeps equal scores in label order; scores are squares, never nan
    ranked = sorted(range(len(labels)), key=values.__getitem__, reverse=True)[:k]
    return [(labels[i], values[i]) for i in ranked], result, _dispersion(values)


def dispersion(result: RankingResult) -> DispersionStats:
    """Entropy and participation ratio of the squared-component
    distribution behind a ranking."""
    return _dispersion([result.scores[lbl] for lbl in sorted(result.scores, key=NodeLabel.render)])


def _dispersion(scores: list[float]) -> DispersionStats:
    """``dispersion`` of the scores in label order, the order its sums run in."""
    p = np.array(scores)
    total = p.sum()
    if total <= 0:
        raise DataError("ranking scores sum to zero; no distribution to analyze")
    p = p / total
    nz = p[p > 0]
    entropy = float(0.0 - (nz * np.log(nz)).sum())  # 0.0, not -0.0, for one node
    pr = float(1.0 / (p @ p))
    return DispersionStats(shannon_entropy=entropy, participation_ratio=pr)

