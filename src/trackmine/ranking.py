"""Spectral node ranking on link matrices.

Three solvers share one contract: score every node by the dominant
eigenvector of a matrix derived from the weighted directly-follows
network.  Each is one dense direct solve:

* ``hits_pm_norm`` — ``np.linalg.eigh`` of the primitivity-adjusted
  symmetric matrix ``alpha * B + (1 - alpha) / n * ones``, where ``B`` is
  the authority matrix ``L.T @ L`` or the hub matrix ``L @ L.T``.
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
``trackmine rank``).  ``rank --json`` reports that ``residual`` and the
eigenspace's ``multiplicity``; ``iterations`` is 0.

A node's score is the square of its component of the unit vector, so the
scores sum to 1 and their square roots are the vector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DataError
# compare_topk stays reachable as ranking.compare_topk
from .procnet import LinkMatrix, NodeLabel, compare_topk  # noqa: F401

SYMMETRY_TOL = 1e-12
RTOL = 1e-10  # certification tolerance per unit of max(1, max|M_ij|)


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


def authority_matrix(lm: LinkMatrix) -> np.ndarray:
    """Symmetrised authority matrix L.T @ L; symmetric PSD.  An entry past
    the float range is inf, which ``_dominant_eigvec`` refuses."""
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
    Near the float range the residual overflows to inf or nan, and fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        Mv = M @ v
        lam = float(v @ Mv)
        res = float(np.linalg.norm(Mv - lam * v))
    if not res <= RTOL * scale:  # a nan residual fails too
        raise ConvergenceError(f"dominant eigenvector residual {res:.3e} exceeds "
                               f"tol={RTOL * scale:.3e}")
    return lam, res


def _dominant_eigvec(S: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """(unit vector, eigenvalue, residual, multiplicity) of a symmetric
    matrix; see ``grad_dominant_eigvec``."""
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DataError("symmetric matrix must be square and non-empty")
    if not np.isfinite(A).all():
        raise DataError("matrix has a non-finite entry")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > SYMMETRY_TOL * scale:
        raise DataError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(A)
    top = vecs[:, vals >= vals[-1] - RTOL * scale]
    v = top @ top.sum(axis=0)  # the all-ones vector projected onto the top eigenspace
    norm = float(np.linalg.norm(v))
    # the projection is nonzero when A is non-negative (Perron-Frobenius);
    # otherwise eigh's own top vector stands in
    v = _fix_sign(v / norm if norm > 0 else top[:, -1])
    lam, res = _certify(A, v, scale)
    return v, lam, res, top.shape[1]


def grad_dominant_eigvec(S: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Dominant eigenpair of a symmetric matrix from one ``np.linalg.eigh``:
    the uniform vector projected onto the eigenspace of every eigenvalue
    within ``tol = RTOL * max(1, max|S_ij|)`` of the largest.  Returns (unit
    vector, eigenvalue, iterations=0) with ``||S v - lam v|| <= tol``, or
    raises ``ConvergenceError``; v's largest-magnitude component is positive.
    """
    vec, lam, _, _ = _dominant_eigvec(S)
    return vec, lam, 0


def _as_result(
    lm: LinkMatrix, algorithm, matrix_kind, alpha, vec, residual, multiplicity=1
) -> RankingResult:
    scores = {lbl: float(value) for lbl, value in zip(lm.labels, vec**2)}
    return RankingResult(algorithm, matrix_kind, alpha, scores, 0, residual, multiplicity)


def hits_pm_norm(lm: LinkMatrix, alpha: float = 0.8, kind: str = "authority") -> RankingResult:
    """Dominant eigenvector of the primitivity-adjusted authority or hub
    matrix.  At ``alpha = 1`` the matrix is the base matrix: its entries
    are non-negative, so ``1.0 * x + 0.0`` is ``x``."""
    if not 0.0 < alpha <= 1.0:
        raise DataError(f"alpha must be in (0, 1], got {alpha}")
    base = _base_matrix(lm, kind)
    M = alpha * base + (1.0 - alpha) / base.shape[0]
    vec, _, res, multiplicity = _dominant_eigvec(M)
    return _as_result(lm, "hits_pm_norm", kind, alpha, vec, res, multiplicity)


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
    # a stable sort keeps equal scores in label order; scores are squares, never nan
    ranked = sorted(labels, key=scores.__getitem__, reverse=True)[:k]
    return ([(lbl, scores[lbl]) for lbl in ranked], result,
            _dispersion([scores[lbl] for lbl in labels]))


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

