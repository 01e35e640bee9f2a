"""Spectral node ranking on link matrices.

Three solvers share one contract: score every node by the dominant
eigenvector of a matrix derived from the weighted directly-follows
network.

* ``grad_dominant_eigvec`` — Rayleigh-quotient ascent on the unit sphere
  with an exact closed-form step (no tunable parameter), applied to the
  authority matrix ``L.T @ L`` or hub matrix ``L @ L.T``.
* ``hits_pm_norm`` — power method on the primitivity-adjusted symmetric
  matrix ``alpha * L.T @ L + (1 - alpha) / n * ones``.
* ``pagerank_norm`` — power method on the teleport-adjusted
  column-stochastic matrix built from ``L``.

Scores are reported as components of the converged unit vector, either
raw (squares sum to 1) or squared (sum to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError
from .procnet import LinkMatrix, NodeLabel, ProcessNetwork, link_matrix

MAX_ITERATIONS = 100_000
SYMMETRY_TOL = 1e-12


@dataclass
class DispersionStats:
    shannon_entropy: float
    participation_ratio: float
    max_score: float


@dataclass
class RankingResult:
    algorithm: str  # gradient | hits_pm_norm | pagerank_norm
    matrix_kind: str  # authority | hub | stochastic
    alpha: float | None
    convention: str  # squared | raw
    scores: dict[NodeLabel, float]
    iterations: int
    residual: float


def authority_matrix(lm: LinkMatrix) -> np.ndarray:
    """Symmetrised authority matrix L.T @ L; symmetric PSD."""
    M = lm.values.T @ lm.values
    return (M + M.T) / 2.0


def hub_matrix(lm: LinkMatrix) -> np.ndarray:
    """Symmetrised hub matrix L @ L.T; symmetric PSD."""
    M = lm.values @ lm.values.T
    return (M + M.T) / 2.0


def _base_matrix(lm: LinkMatrix, kind: str) -> np.ndarray:
    if kind == "authority":
        return authority_matrix(lm)
    if kind == "hub":
        return hub_matrix(lm)
    raise DataError(f"kind must be 'authority' or 'hub', got {kind!r}")


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D float vector, without its
    # argument handling
    return math.sqrt(v.dot(v))


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def grad_dominant_eigvec(S: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, float, int]:
    """Dominant eigenpair of a symmetric PSD matrix by Rayleigh-quotient
    ascent with exact line search.

    Each step maximizes the Rayleigh quotient over span{x, gradient},
    which reduces to a closed-form 2x2 symmetric eigenproblem; no step
    size or damping parameter is involved.  Returns (unit vector,
    eigenvalue, iterations) with ``||S v - lam v|| <= tol``; the
    largest-magnitude component of v is positive.
    """
    if tol <= 0:
        raise DataError("tol must be > 0")
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("symmetric matrix must be square")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if np.abs(A - A.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise DataError("matrix is not symmetric")
    n = A.shape[0]
    if n == 1:
        return np.array([1.0]), float(A[0, 0]), 0

    x = _start_vector(n)
    # work vectors, overwritten each step; same operations, same order as
    # the expressions in the comments
    y, r, u, Au = (np.empty(n) for _ in range(4))
    for it in range(1, MAX_ITERATIONS + 1):
        A.dot(x, out=y)  # y = A @ x
        rho = float(x.dot(y))
        np.multiply(x, rho, out=r)
        np.subtract(y, r, out=r)  # r = y - rho * x: sphere gradient of the Rayleigh quotient
        rnorm = _norm(r)
        if rnorm <= tol:
            return _fix_sign(x), rho, it
        np.multiply(x, x.dot(r), out=u)
        r -= u  # r -= (x @ r) * x: re-orthogonalize; rounding in r leaks along x
        rn2 = _norm(r)
        if rn2 == 0.0:
            return _fix_sign(x), rho, it
        np.divide(r, rn2, out=u)
        # exact step: dominant eigenvector of A restricted to span{x, u}
        a = rho
        b = float(u.dot(y))
        d = float(u.dot(A.dot(u, out=Au)))
        theta = 0.5 * math.atan2(2.0 * b, a - d)
        c, s = math.cos(theta), math.sin(theta)
        if c * c * a + 2 * c * s * b + s * s * d < s * s * a - 2 * c * s * b + c * c * d:
            c, s = -s, c
        x *= c
        u *= s
        x += u  # x = c * x + s * u
        x /= _norm(x)
    raise ConvergenceError(
        f"gradient eigensolver did not reach tol={tol} in {MAX_ITERATIONS} iterations "
        f"(residual {rnorm:.3e})",
        residual=rnorm,
        iterations=MAX_ITERATIONS,
    )


def _start_vector(n: int) -> np.ndarray:
    # near-uniform with a deterministic ramp so the start is never exactly
    # orthogonal to a structured dominant eigenvector
    x = 1.0 + 1e-6 * np.arange(1, n + 1)
    return x / np.linalg.norm(x)


def _power_iteration(M: np.ndarray, tol: float) -> tuple[np.ndarray, float, float, int]:
    """Power method with L2 renormalization each step.

    Returns (unit vector, Rayleigh quotient lam, residual ||M v - lam v||,
    iterations); the largest-magnitude component of v is positive.  Stops
    once a step moves the vector by at most 1e-12 or the residual is
    <= tol.  The one mat-vec per step serves lam, the residual and the
    next step.
    """
    n = M.shape[0]
    x = _start_vector(n)
    y = M @ x
    # work vectors, overwritten each step; x and x_new swap roles
    x_new, diff = np.empty(n), np.empty(n)
    for it in range(1, MAX_ITERATIONS + 1):
        norm = _norm(y)
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to zero", residual=math.inf)
        np.divide(y, norm, out=x_new)
        M.dot(x_new, out=y)
        lam = float(x_new.dot(y))
        np.multiply(x_new, lam, out=diff)
        res = _norm(np.subtract(y, diff, out=diff))  # ||y - lam * x_new||
        stalled = _norm(np.subtract(x_new, x, out=diff)) <= 1e-12
        x, x_new = x_new, x
        if stalled or res <= tol:
            return _fix_sign(x), lam, res, it
    raise ConvergenceError(
        f"power iteration did not converge in {MAX_ITERATIONS} iterations",
        residual=res,
        iterations=MAX_ITERATIONS,
    )


def _check_convention(convention: str) -> None:
    if convention not in ("squared", "raw"):
        raise DataError(f"unknown convention {convention!r}")


def _as_result(
    lm: LinkMatrix, algorithm, matrix_kind, alpha, convention, vec, it, res
) -> RankingResult:
    values = vec**2 if convention == "squared" else vec
    return RankingResult(
        algorithm=algorithm,
        matrix_kind=matrix_kind,
        alpha=alpha,
        convention=convention,
        scores={lbl: float(values[i]) for i, lbl in enumerate(lm.labels)},
        iterations=it,
        residual=res,
    )


def hits_pm_norm(
    lm: LinkMatrix,
    alpha: float = 0.8,
    kind: str = "authority",
    tol: float = 1e-10,
    convention: str = "squared",
) -> RankingResult:
    """Power method on the primitivity-adjusted authority or hub matrix."""
    if not 0.0 < alpha <= 1.0:
        raise DataError(f"alpha must be in (0, 1], got {alpha}")
    _check_convention(convention)
    base = _base_matrix(lm, kind)
    n = base.shape[0]
    M = alpha * base + (1.0 - alpha) / n * np.ones((n, n))
    vec, _, res, it = _power_iteration(M, tol)
    return _as_result(lm, "hits_pm_norm", kind, alpha, convention, vec, it, res)


def stochastic_matrix(lm: LinkMatrix, alpha: float) -> np.ndarray:
    """Teleport-adjusted column-stochastic matrix of L; zero columns
    become uniform."""
    L = lm.values
    n = L.shape[0]
    col_sums = L.sum(axis=0)
    zero = col_sums == 0
    S = np.where(zero, 1.0 / n, L / np.where(zero, 1.0, col_sums))
    return alpha * S + (1.0 - alpha) / n * np.ones((n, n))


def pagerank_norm(
    lm: LinkMatrix, alpha: float = 0.8, tol: float = 1e-10, convention: str = "squared"
) -> RankingResult:
    """Power method with L2 renormalization on the teleport-adjusted
    column-stochastic matrix.  The matrix is positive, so the iterates
    from the positive start vector stay positive and converge to its
    Perron vector; squared scores form a probability distribution."""
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    _check_convention(convention)
    G = stochastic_matrix(lm, alpha)
    vec, _, res, it = _power_iteration(G, tol)
    return _as_result(lm, "pagerank_norm", "stochastic", alpha, convention, vec, it, res)


def gradient_ranking(
    lm: LinkMatrix, kind: str = "authority", tol: float = 1e-10, convention: str = "squared"
) -> RankingResult:
    _check_convention(convention)
    base = _base_matrix(lm, kind)
    vec, lam, it = grad_dominant_eigvec(base, tol)
    res = float(np.linalg.norm(base @ vec - lam * vec))
    return _as_result(lm, "gradient", kind, None, convention, vec, it, res)


def rank_nodes(
    net: ProcessNetwork | LinkMatrix,
    algorithm: str = "gradient",
    kind: str = "authority",
    alpha: float = 0.8,
    convention: str = "squared",
    k: int = 10,
    tol: float = 1e-10,
) -> tuple[list[tuple[NodeLabel, float]], RankingResult, DispersionStats]:
    """Top-k nodes under one algorithm; descending score, ties by label."""
    if k < 1:
        raise DataError("k must be >= 1")
    lm = net if isinstance(net, LinkMatrix) else link_matrix(net)
    if algorithm == "gradient":
        result = gradient_ranking(lm, kind=kind, tol=tol, convention=convention)
    elif algorithm == "hits_pm_norm":
        result = hits_pm_norm(lm, alpha=alpha, kind=kind, tol=tol, convention=convention)
    elif algorithm == "pagerank_norm":
        result = pagerank_norm(lm, alpha=alpha, tol=tol, convention=convention)
    else:
        raise DataError(f"unknown algorithm {algorithm!r}")
    ranked = sorted(result.scores.items(), key=lambda kv: (-kv[1], kv[0].render()))
    return ranked[:k], result, dispersion(result)


def dispersion(result: RankingResult) -> DispersionStats:
    """Entropy and participation ratio of the squared-component
    distribution behind a ranking."""
    values = np.array([result.scores[lbl] for lbl in sorted(result.scores, key=NodeLabel.render)])
    p = values**2 if result.convention == "raw" else values
    total = p.sum()
    if total <= 0:
        raise DataError("ranking scores sum to zero; no distribution to analyze")
    p = p / total
    nz = p[p > 0]
    entropy = float(-(nz * np.log(nz)).sum())
    pr = float(1.0 / (p @ p))
    return DispersionStats(
        shannon_entropy=entropy,
        participation_ratio=pr,
        max_score=float(values.max()),
    )


def compare_topk(a, b, k: int) -> dict:
    """Set algebra on two ranked label lists truncated to k."""
    def labels(seq):
        out = []
        for item in seq:
            lbl = item[0] if isinstance(item, tuple) else item
            out.append(lbl.render() if isinstance(lbl, NodeLabel) else str(lbl))
        return out

    la, lb = labels(a), labels(b)
    if k > len(la) or k > len(lb):
        raise DataError(f"k={k} exceeds a list length ({len(la)}, {len(lb)})")
    sa, sb = set(la[:k]), set(lb[:k])
    union = sa | sb
    return {
        "common": sa & sb,
        "only_a": sa - sb,
        "only_b": sb - sa,
        "jaccard": len(sa & sb) / len(union) if union else 1.0,
    }
