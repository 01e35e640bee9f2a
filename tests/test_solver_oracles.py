"""The ranking solvers against their one-expression-per-step oracles.

The library's loops write each step into preallocated vectors; the oracles
in ``_oracles`` allocate a new array per expression.  Both run the same
floating-point operations in the same order, so every output (vector,
eigenvalue, residual, iterations, and any exception with its fields) must
agree under ``repr``, not just to a tolerance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import grad_dominant_eigvec_loop, power_iteration_loop, random_psd
from trackmine import ranking
from trackmine.procnet import LinkMatrix, NodeLabel
from trackmine.ranking import (
    authority_matrix,
    grad_dominant_eigvec,
    hub_matrix,
    rank_nodes,
    stochastic_matrix,
)


def _plain(value):
    """Arrays to (dtype, shape, exact values) so ``repr`` shows every bit."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tolist())
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


def _outcome(fn, *args, **kwargs):
    try:
        return repr(_plain(fn(*args, **kwargs)))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return repr((type(exc).__name__, str(exc),
                     getattr(exc, "residual", None), getattr(exc, "iterations", None)))


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
    return _dfg_like(rng, n)


def _labels(L):
    return [NodeLabel("x", str(i)) for i in range(L.shape[0])]


_FAMILIES = st.sampled_from(["one", "identity", "blocks", "zero", "dense", "dfg", "dfg", "dfg"])
_LAYOUTS = st.sampled_from(["C", "F", "T"])


def _layout(S, layout):
    if layout == "F":
        return np.asfortranarray(S)
    if layout == "T":
        return S.T  # a transposed view: Fortran-ordered, not a copy
    return S


@given(st.integers(0, 2**32 - 1), _FAMILIES, st.integers(2, 14), _LAYOUTS,
       st.sampled_from(["authority", "hub", "psd"]))
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
    tol = float(rng.choice([1e-10, 1e-12, 1e-6]))
    assert _outcome(grad_dominant_eigvec, S, tol) == _outcome(grad_dominant_eigvec_loop, S, tol)


@given(st.integers(0, 2**32 - 1), _FAMILIES, st.integers(2, 14),
       st.sampled_from(["hits", "stochastic", "raw"]), st.sampled_from([0.5, 0.8, 0.95, 1.0]))
@settings(max_examples=300, deadline=None)
def test_power_iteration_matches_oracle(seed, family, n, build, alpha):
    rng = np.random.default_rng(seed)
    L = _link_values(family, rng, n)
    lm = LinkMatrix(labels=_labels(L), values=L)
    m = L.shape[0]
    if build == "hits":
        M = alpha * authority_matrix(lm) + (1.0 - alpha) / m * np.ones((m, m))
    elif build == "stochastic":
        M = stochastic_matrix(lm, min(alpha, 0.95))
    else:
        M = L  # the bare counts: not symmetric, may be nilpotent or zero
    tol = float(rng.choice([1e-10, 1e-12]))
    assert _outcome(ranking._power_iteration, M, tol) == _outcome(power_iteration_loop, M, tol)


def test_power_iteration_collapsed_to_zero_matches_oracle():
    M = np.zeros((3, 3))
    out = _outcome(ranking._power_iteration, M, 1e-10)
    assert "collapsed to zero" in out
    assert out == _outcome(power_iteration_loop, M, 1e-10)


@given(st.integers(0, 2**32 - 1), _FAMILIES, st.integers(2, 14),
       st.sampled_from(["gradient", "hits_pm_norm", "pagerank_norm"]),
       st.sampled_from(["authority", "hub"]), st.sampled_from(["squared", "raw"]),
       st.sampled_from([0.5, 0.8, 0.95]))
@settings(max_examples=300, deadline=None)
def test_rank_nodes_matches_oracle(seed, family, n, algorithm, kind, convention, alpha):
    rng = np.random.default_rng(seed)
    L = _link_values(family, rng, n)
    lm = LinkMatrix(labels=_labels(L), values=L)
    args = dict(algorithm=algorithm, kind=kind, alpha=alpha, convention=convention, k=5)
    got = _outcome(rank_nodes, lm, **args)
    with mock.patch.object(ranking, "_power_iteration", power_iteration_loop), \
            mock.patch.object(ranking, "grad_dominant_eigvec", grad_dominant_eigvec_loop):
        want = _outcome(rank_nodes, lm, **args)
    assert got == want


@pytest.mark.parametrize("cap", [1, 2, 7])
@pytest.mark.parametrize("seed", range(6))
def test_convergence_errors_match_oracle(monkeypatch, cap, seed):
    monkeypatch.setattr(ranking, "MAX_ITERATIONS", cap)
    monkeypatch.setattr(_oracles, "MAX_ITERATIONS", cap)
    rng = np.random.default_rng(seed)
    S = random_psd(rng, 9, gap_max=1.0)
    M = 0.8 * S + 0.2 / 9 * np.ones((9, 9))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1: never settles
    cases = [
        (grad_dominant_eigvec, grad_dominant_eigvec_loop, (S, 1e-14)),
        (ranking._power_iteration, power_iteration_loop, (M, 1e-14)),
        (ranking._power_iteration, power_iteration_loop, (flip, 1e-10)),
    ]
    for fn, oracle, args in cases:
        got = _outcome(fn, *args)
        assert got == _outcome(oracle, *args)
        assert got.startswith("('ConvergenceError'")
