"""The direct ranking solves against the iterative loops they replaced.

The library takes one ``np.linalg.eigh`` (``gradient``, ``hits_pm_norm``)
or one linear solve (``pagerank_norm``) per ranking; the loops live on in
``_oracles``.  Where the dominant vector is unique the two must agree
within the Davis-Kahan bound of their residuals over the spectral gap.
Where it is not, the loops pick a vector by node order and the library
picks the uniform vector projected onto the top eigenspace, so only the
library must permute its scores with the labels.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import grad_dominant_eigvec_loop, power_iteration_loop, random_psd
from trackmine import ranking
from trackmine.errors import ConvergenceError
from trackmine.procnet import LinkMatrix, NodeLabel
from trackmine.ranking import (
    authority_matrix,
    grad_dominant_eigvec,
    hub_matrix,
    rank_nodes,
    stochastic_matrix,
)

TOL = 1e-10  # the loops' tolerance, and ranking.RTOL at scale 1


def _dfg_like(rng, n):
    """Integer directly-follows counts of a random walk over n nodes."""
    L = np.zeros((n, n))
    seq = rng.integers(0, n, size=int(rng.integers(2, 6 * n + 2)))
    for a, b in zip(seq, seq[1:]):
        L[a, b] += 1
    return L


def _link_values(family, rng, n):
    if family == "one":
        return np.array([[float(rng.integers(0, 4))]])
    if family == "identity":
        return float(rng.integers(1, 4)) * np.eye(n)
    if family == "blocks":
        # one block repeated on the diagonal: every eigenvalue, the top one
        # included, has multiplicity >= 2
        k = max(1, n // 2)
        return np.kron(np.eye(2), rng.integers(0, 3, size=(k, k)).astype(float))
    if family == "zero":
        return np.zeros((n, n))
    if family == "dense":
        return rng.uniform(0.0, 2.0, size=(n, n))
    # the families below are drawn past ranking.FOLD_ABOVE nodes, where the
    # solve folds the isolated nodes of the authority or hub matrix
    if family == "linked":
        return rng.uniform(0.5, 2.0, size=(n, n))  # every two nodes share a predecessor
    if family == "isolated":
        # one predecessor per node, and one successor per node: B is diagonal
        return np.diag(rng.integers(1, 4, size=n).astype(float))[rng.permutation(n)]
    if family == "tied_top":
        # self-loops, three of them of the largest weight, and a linked block of
        # smaller weight
        L = np.diag(rng.integers(1, 4, size=n).astype(float))
        top = rng.choice(n, size=3, replace=False)
        L[top, top] = 4.0
        block = np.setdiff1d(np.arange(n), top)[:4]
        L[np.ix_(block, block)] = rng.uniform(0.1, 0.5, size=(4, 4))
        return L
    L = _dfg_like(rng, n)
    if family == "zero_rows":
        dead = rng.choice(n, size=n // 3, replace=False)
        L[dead, :] = 0.0
        L[:, dead] = 0.0
    return L


def _labels(L):
    return [NodeLabel("x", str(i)) for i in range(L.shape[0])]


_FAMILY_NAMES = ["one", "identity", "blocks", "zero", "dense", "dfg"]
_FAMILIES = st.sampled_from(_FAMILY_NAMES + ["dfg", "dfg"])
_FOLD_FAMILIES = st.sampled_from(["dfg", "linked", "isolated", "zero_rows", "tied_top"])
_FOLD_SIZES = st.integers(ranking.FOLD_ABOVE + 1, 60)
_LAYOUTS = st.sampled_from(["C", "F", "T"])
_SEEDS = st.integers(0, 2**32 - 1)
_ALGORITHMS = st.sampled_from(["gradient", "hits_pm_norm", "pagerank_norm"])
_KINDS = st.sampled_from(["authority", "hub"])
_ALPHAS = st.sampled_from([0.5, 0.8, 0.95])


def _layout(S, layout):
    if layout == "F":
        return np.asfortranarray(S)
    if layout == "T":
        return S.T  # a transposed view: Fortran-ordered, not a copy
    return S


def _top_gap(M):
    """Largest eigenvalue of a symmetric M and its gap to the next."""
    vals = np.linalg.eigvalsh(M)
    top = float(vals[-1])
    return top, float(vals[-1] - vals[-2]) if len(vals) > 1 else math.inf


def _simple(top, gap, tol):
    return gap > max(2.0 * tol, 1e-9 * max(abs(top), 1.0))


def _davis_kahan(top, gap, residual):
    """Bound on the score difference of two unit vectors whose residuals
    sum to ``residual``, for a top eigenvalue with this gap."""
    return 4.0 * (residual + 1e-13 * max(top, 1.0)) / gap + 1e-9


def _loop_ranking(lm, algorithm, kind, alpha):
    """The dominant unit vector, its residual, and the matrix, as the
    loops computed them for this algorithm."""
    if algorithm == "pagerank_norm":
        M = stochastic_matrix(lm, alpha)
        vec, _, res, _ = power_iteration_loop(M, TOL)
        return vec, res, M
    base = authority_matrix(lm) if kind == "authority" else hub_matrix(lm)
    if algorithm == "gradient":
        vec, lam, _ = grad_dominant_eigvec_loop(base, TOL)
        return vec, float(np.linalg.norm(base @ vec - lam * vec)), base
    n = base.shape[0]
    M = alpha * base + (1.0 - alpha) / n * np.ones((n, n))
    vec, _, res, _ = power_iteration_loop(M, TOL)
    return vec, res, M


@given(_SEEDS, _FAMILIES, st.integers(2, 14), _LAYOUTS, _ALGORITHMS, _KINDS, _ALPHAS)
@settings(max_examples=300, deadline=None)
def test_rank_nodes_matches_oracle(seed, family, n, layout, algorithm, kind, alpha):
    rng = np.random.default_rng(seed)
    L = _layout(_link_values(family, rng, n), layout)
    lm = LinkMatrix(labels=_labels(L), values=L)
    _, got, _ = rank_nodes(lm, algorithm=algorithm, kind=kind, alpha=alpha, k=5)
    try:
        vec, res, M = _loop_ranking(lm, algorithm, kind, alpha)
    except ConvergenceError:
        return  # the loop gave up; the direct residual is tested on its own
    residual = got.residual + res
    if algorithm == "pagerank_norm":
        # the Perron root 1 of M is simple, and every other eigenvalue is at
        # most alpha in modulus: the 1-norm of (I - alpha S)^-1 is at most
        # 1 / (1 - alpha), and moving to unit 2-norm vectors costs a factor n
        m = M.shape[0]
        bound = 4.0 * m * (residual + 1e-13) / (1.0 - alpha) + 1e-9
    else:
        top, gap = _top_gap(M)
        if not _simple(top, gap, TOL):
            return  # the loops' answer depends on node order
        bound = _davis_kahan(top, gap, residual)
    want = vec**2
    err = max(abs(got.scores[lbl] - float(want[i])) for i, lbl in enumerate(lm.labels))
    assert err <= bound


@given(_SEEDS, _FAMILIES, st.integers(2, 14), _LAYOUTS,
       st.sampled_from(["authority", "hub", "psd"]))
@example(seed=2897, family="dfg", n=12, layout="C", source="psd")  # the loop gives up
# two components of near-equal magnitude, 4e-6 apart, trade places
@example(seed=961842398, family="dfg", n=7, layout="C", source="psd")
@settings(max_examples=300, deadline=None)
def test_grad_dominant_eigvec_matches_oracle(seed, family, n, layout, source):
    rng = np.random.default_rng(seed)
    L = _link_values(family, rng, n)
    if source == "psd" and family not in ("one", "zero"):
        S = random_psd(rng, L.shape[0], gap_max=1.0)
    elif source == "hub":
        S = hub_matrix(LinkMatrix(labels=_labels(L), values=L))
    else:
        S = authority_matrix(LinkMatrix(labels=_labels(L), values=L))
    S = _layout(S, layout)
    tol = float(rng.choice([1e-10, 1e-12, 1e-6]))  # the loop's and _simple's
    v, lam, it = grad_dominant_eigvec(S)
    assert it == 0
    lib_res = float(np.linalg.norm(S @ v - lam * v))
    assert lib_res <= ranking.RTOL * max(1.0, float(np.abs(S).max()))
    try:
        ref, ref_lam, _ = grad_dominant_eigvec_loop(S, tol)
    except ConvergenceError:
        return
    top, gap = _top_gap(S)
    if not _simple(top, gap, tol):
        return
    residual = lib_res + float(np.linalg.norm(S @ ref - ref_lam * ref))
    # the bound holds up to sign: where two components are nearer in
    # magnitude than it, either may be the largest, which the sign rule
    # makes positive, so the rule is checked on its own
    assert v[np.argmax(np.abs(v))] > 0
    assert min(np.abs(v - ref).max(), np.abs(v + ref).max()) <= _davis_kahan(top, gap, residual)


@given(_SEEDS, st.one_of(st.tuples(_FAMILIES, st.integers(2, 14)),
                        st.tuples(_FOLD_FAMILIES, _FOLD_SIZES)),
       _ALGORITHMS, _KINDS, _ALPHAS)
@settings(max_examples=300, deadline=None)
def test_relabelling_permutes_scores(seed, case, algorithm, kind, alpha):
    family, n = case
    rng = np.random.default_rng(seed)
    L = _link_values(family, rng, n)
    labels = _labels(L)
    perm = rng.permutation(len(labels))
    args = dict(algorithm=algorithm, kind=kind, alpha=alpha, k=5)
    _, a, _ = rank_nodes(LinkMatrix(labels=labels, values=L), **args)
    relabelled = LinkMatrix(labels=[labels[i] for i in perm], values=L[np.ix_(perm, perm)])
    _, b, _ = rank_nodes(relabelled, **args)
    assert a.multiplicity == b.multiplicity
    for lbl in labels:
        assert abs(a.scores[lbl] - b.scores[lbl]) <= 1e-9


@pytest.mark.parametrize("family", _FAMILY_NAMES)
@given(seed=_SEEDS, n=st.integers(2, 14), algorithm=_ALGORITHMS, kind=_KINDS,
       alpha=_ALPHAS)
@settings(max_examples=60, deadline=None)
def test_residual_within_tol(family, seed, n, algorithm, kind, alpha):
    L = _link_values(family, np.random.default_rng(seed), n)
    lm = LinkMatrix(labels=_labels(L), values=L)
    _, result, _ = rank_nodes(lm, algorithm=algorithm, kind=kind, alpha=alpha)
    assert 0.0 <= result.residual <= TOL
    assert result.iterations == 0
    assert 1 <= result.multiplicity <= L.shape[0]


# ---------------------------------------------------------------------------
# the folded solve: past ranking.FOLD_ABOVE nodes, hits_pm_norm (and so
# gradient) runs eigh on the quotient over its isolated nodes, and must give
# the dense solve's answer

@given(_SEEDS, _FOLD_FAMILIES, _FOLD_SIZES, _KINDS, st.sampled_from([1.0, 0.8, 0.3]))
@example(seed=0, family="linked", n=40, kind="authority", alpha=0.8)  # no isolated node
@example(seed=0, family="isolated", n=40, kind="hub", alpha=1.0)  # no linked node
@example(seed=0, family="zero_rows", n=40, kind="authority", alpha=0.3)
@example(seed=0, family="tied_top", n=40, kind="authority", alpha=1.0)
@example(seed=0, family="tied_top", n=40, kind="hub", alpha=0.8)
@settings(max_examples=150, deadline=None)
def test_folded_solve_matches_dense(seed, family, n, kind, alpha):
    L = _link_values(family, np.random.default_rng(seed), n)
    lm = LinkMatrix(labels=_labels(L), values=L)
    base = authority_matrix(lm) if kind == "authority" else hub_matrix(lm)
    got = ranking.hits_pm_norm(lm, alpha, kind)
    M = alpha * base + (1.0 - alpha) / n
    scale = ranking._scale(M)
    vec, _, res, multiplicity, gap = ranking._dominant_eigvec(M, scale)
    assert got.multiplicity == multiplicity
    assert 0.0 <= got.residual <= ranking.RTOL * scale
    vals = np.linalg.eigvalsh(M)
    if multiplicity == n:
        assert got.gap is None
        dk_gap = math.inf
    else:
        dk_gap = float(vals[-1] - vals[-multiplicity - 1])
        assert abs(got.gap - dk_gap / scale) <= 1e-9
        assert abs(got.gap - gap) <= 1e-9
    bound = _davis_kahan(float(vals[-1]), dk_gap, got.residual + res)
    err = max(abs(got.scores[lbl] - float(vec[i]) ** 2) for i, lbl in enumerate(lm.labels))
    assert err <= bound
