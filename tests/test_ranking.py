import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmine import ranking
from trackmine.errors import ConvergenceError, DataError
from trackmine.eventlog import Cycle, parse_log
from trackmine.procnet import LinkMatrix, NodeLabel, build_dfg, link_matrix
from trackmine.ranking import (
    DispersionStats,
    authority_matrix,
    compare_topk,
    dispersion,
    grad_dominant_eigvec,
    gradient_ranking,
    hits_pm_norm,
    hub_matrix,
    pagerank_norm,
    rank_nodes,
    stochastic_matrix,
)

from _oracles import power_iteration_oracle, random_psd, stochastic_columns_loop

L0 = np.array([[1.01, 0.01, 0.00], [0.01, 1.00, 0.00], [0.00, 0.00, 0.90]])
L1 = np.array(
    [
        [1.01, 0.01, 0.00, 0.01],
        [0.01, 1.00, 0.00, 0.02],
        [0.00, 0.00, 0.90, 1.00],
        [0.01, 0.01, 0.02, 0.05],
    ]
)


def lm(values):
    n = values.shape[0]
    return LinkMatrix(
        labels=[NodeLabel("x", str(i + 1)) for i in range(n)], values=values
    )


LM0, LM1 = lm(L0), lm(L1)

# two roles over three locations, with self-loops and a pair seen twice
DFG_CYCLE = Cycle(index=1, cycle_time=50.0, records=parse_log("""\
EL1: {s1, (E1,RP), 2024/08/15/10:00:00}
EL1: {s1, (E1,RP), 2024/08/15/10:00:10}
EL1: {s2, (E1,RP); k3, (E2,LP), 2024/08/15/10:00:20}
EL1: {s1, (E1,RP), 2024/08/15/10:00:30}
EL1: {s2, (E1,RP); k3, (E2,LP), 2024/08/15/10:00:40}
EL1: {k3, (E2,LP), 2024/08/15/10:00:50}
""").records)


class TestAuthorityHub:
    def test_hand_multiplied_entries(self):
        A = authority_matrix(LM0)
        assert A[0, 0] == pytest.approx(1.0202, abs=1e-12)
        assert A[0, 1] == pytest.approx(0.0201, abs=1e-12)
        assert A[2, 2] == pytest.approx(0.81, abs=1e-12)

    def test_identity(self):
        ident = lm(np.eye(3))
        assert np.allclose(authority_matrix(ident), np.eye(3))
        assert np.allclose(hub_matrix(ident), np.eye(3))

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_shared_nonzero_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.uniform(0, 2, size=(4, 4))
        a = np.sort(np.linalg.eigvalsh(authority_matrix(lm(L))))
        h = np.sort(np.linalg.eigvalsh(hub_matrix(lm(L))))
        assert np.allclose(a, h, atol=1e-9)


class TestGradientSolver:
    def test_diagonal(self):
        v, lam, _ = grad_dominant_eigvec(np.diag([2.0, 1.0]))
        assert lam == pytest.approx(2.0, abs=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-6)

    def test_table_values_three_nodes(self):
        v, _, _ = grad_dominant_eigvec(authority_matrix(LM0))
        sq = v**2
        assert sq[0] == pytest.approx(0.723, abs=0.005)
        assert sq[1] == pytest.approx(0.277, abs=0.005)
        assert sq[2] <= 1e-12

    def test_table_values_four_nodes(self):
        v, _, _ = grad_dominant_eigvec(authority_matrix(LM1))
        sq = v**2
        assert sq[0] == pytest.approx(1.17e-4, abs=5e-5)
        assert sq[1] == pytest.approx(3.72e-4, abs=5e-5)
        assert sq[2] == pytest.approx(0.446, abs=0.005)
        assert sq[3] == pytest.approx(0.553, abs=0.005)

    def test_residual_contract(self):
        S = authority_matrix(LM1)
        tol = 1e-11
        v, lam, _ = grad_dominant_eigvec(S)
        assert np.linalg.norm(S @ v - lam * v) <= tol

    def test_sign_convention(self):
        v, _, _ = grad_dominant_eigvec(np.diag([3.0, 1.0]))
        assert v[0] > 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(DataError, match="not symmetric"):
            grad_dominant_eigvec(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DataError, match="square"):
            grad_dominant_eigvec(np.ones((2, 3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        A = random_psd(rng, n)
        v, lam, it = grad_dominant_eigvec(A)
        ref, ref_lam = power_iteration_oracle(A)
        assert abs(float(v @ ref)) >= 1.0 - 1e-8
        assert lam == pytest.approx(ref_lam, abs=1e-8)
        assert it < 100_000

    @given(st.integers(0, 1000), st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant_ordering(self, seed, c):
        rng = np.random.default_rng(seed)
        A = random_psd(rng, 6)
        v1, _, _ = grad_dominant_eigvec(A)
        v2, _, _ = grad_dominant_eigvec(c * A)
        assert np.argsort(v1**2).tolist() == np.argsort(v2**2).tolist()

    def test_iteration_cap(self, monkeypatch):
        # an unreachable tolerance cannot be certified
        rng = np.random.default_rng(0)
        A = random_psd(rng, 8)
        monkeypatch.setattr(ranking, "RTOL", 1e-300)
        with pytest.raises(ConvergenceError):
            grad_dominant_eigvec(A)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DataError, match="non-finite"):
            grad_dominant_eigvec(np.array([[1.0, value], [value, 1.0]]))

    def test_repeated_top_eigenvalue_gives_projected_uniform(self):
        # diag(2, 2, 1): the top eigenspace is spanned by e1 and e2
        v, lam, it = grad_dominant_eigvec(np.diag([2.0, 2.0, 1.0]))
        assert v.tolist() == pytest.approx([2**-0.5, 2**-0.5, 0.0], abs=1e-15)
        assert (lam, it) == (pytest.approx(2.0, abs=1e-15), 0)

    def test_uniform_orthogonal_to_top_eigenspace(self):
        # PSD, top eigenvector (1, -1) / sqrt 2: the uniform vector projects to 0
        v, lam, _ = grad_dominant_eigvec(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert abs(v[0]) == pytest.approx(2**-0.5, abs=1e-12)
        assert v[0] == pytest.approx(-v[1], abs=1e-12)
        assert lam == pytest.approx(2.0, abs=1e-12)


class TestHitsPmNorm:
    def test_table1_alpha08(self):
        scores = list(hits_pm_norm(LM0, alpha=0.8).scores.values())
        assert scores == pytest.approx([0.484, 0.411, 0.105], abs=0.02)

    def test_table2_alpha03(self):
        scores = list(hits_pm_norm(LM1, alpha=0.3).scores.values())
        assert scores == pytest.approx([0.172, 0.171, 0.310, 0.347], abs=0.02)

    def test_alpha_one_matches_gradient(self):
        # gradient has no solve of its own: at alpha = 1 the teleport term
        # adds 0.0, so eigh sees the base matrix, and the scores are the
        # squares of grad_dominant_eigvec's vector, to the last bit
        for matrix in (LM0, LM1, link_matrix(build_dfg(DFG_CYCLE))):
            for kind, base in (("authority", authority_matrix), ("hub", hub_matrix)):
                g = gradient_ranking(matrix, kind)
                h = hits_pm_norm(matrix, 1.0, kind)
                assert (g.algorithm, g.matrix_kind, g.alpha) == ("gradient", kind, None)
                assert repr(g.scores) == repr(h.scores)
                assert (g.multiplicity, g.residual) == (h.multiplicity, h.residual)
                v, _, _ = grad_dominant_eigvec(base(matrix))
                assert [g.scores[lbl] for lbl in matrix.labels] == (v**2).tolist()

    def test_squared_scores_sum_to_one(self):
        for alpha in (0.3, 0.8, 1.0):
            assert sum(hits_pm_norm(LM1, alpha=alpha).scores.values()) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_strict_positivity_below_one(self):
        assert all(v > 0 for v in hits_pm_norm(LM0, alpha=0.8).scores.values())

    def test_alpha_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(DataError):
                hits_pm_norm(LM0, alpha=bad)

    def test_bad_kind(self):
        with pytest.raises(DataError, match="kind"):
            hits_pm_norm(LM0, kind="bogus")


def _folding(n=ranking.FOLD_ABOVE + 5):
    """A link matrix past FOLD_ABOVE: a linked block of four nodes, then
    self-loops of weight 2 on every third other node and of weight 1 on the
    rest, so that B has two classes of isolated nodes."""
    values = np.diag([2.0 if i % 3 == 0 else 1.0 for i in range(n)])
    values[:4, :4] = np.arange(16.0).reshape(4, 4) % 3
    return lm(values)


class TestGap:
    def test_diagonal(self):
        # diag(3, 1): (3 - 1) / max(1, 3)
        _, _, _, multiplicity, gap = ranking._dominant_eigvec(np.diag([3.0, 1.0]), 3.0)
        assert (multiplicity, gap) == (1, pytest.approx(2 / 3, abs=1e-15))

    def test_none_when_the_top_eigenspace_is_the_whole_space(self):
        assert gradient_ranking(lm(np.eye(3))).gap is None
        assert pagerank_norm(LM1).gap is None  # no eigen-decomposition to read it from

    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.3])
    @pytest.mark.parametrize("kind", ["authority", "hub"])
    def test_folded_gap_matches_eigvalsh(self, alpha, kind):
        matrix = _folding()
        result = hits_pm_norm(matrix, alpha, kind)
        base = authority_matrix(matrix) if kind == "authority" else hub_matrix(matrix)
        M = alpha * base + (1.0 - alpha) / base.shape[0]
        vals = np.linalg.eigvalsh(M)
        m = result.multiplicity
        assert result.gap == pytest.approx((vals[-1] - vals[-m - 1]) / max(1.0, M.max()),
                                           abs=1e-9)


class TestFold:
    @pytest.mark.parametrize("alpha", [1.0, 0.8])
    def test_nodes_of_one_class_tie_bit_for_bit(self, alpha):
        matrix = _folding()
        scores = hits_pm_norm(matrix, alpha).scores
        classes = {}
        for i, lbl in enumerate(matrix.labels[4:], start=4):
            classes.setdefault(i % 3 == 0, set()).add(scores[lbl])
        assert [len(values) for values in classes.values()] == [1, 1]

    def test_tied_class_at_the_top(self):
        # a class of three self-loops of weight 5 tops the spectrum: at alpha = 1
        # its eigenvalue 25 is repeated three times, and the teleport term splits it
        values = _folding().values.copy()
        values[[10, 20, 30], [10, 20, 30]] = 5.0
        result = gradient_ranking(lm(values))
        assert result.multiplicity == 3
        tied = {result.scores[lbl] for lbl in lm(values).labels[10::10]}
        assert len(tied) == 1 and tied.pop() == pytest.approx(1 / 3, abs=1e-15)
        assert hits_pm_norm(lm(values), 0.8).multiplicity == 1

    def test_eigh_sees_the_quotient_only_past_the_constant(self, monkeypatch):
        orders = []
        eigh = np.linalg.eigh

        def spy(A):
            orders.append(A.shape[0])
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for n in (ranking.FOLD_ABOVE, ranking.FOLD_ABOVE + 1):
            orders.clear()
            matrix = _folding(n)
            gradient_ranking(matrix)
            hits_pm_norm(matrix, 0.8)
            if n > ranking.FOLD_ABOVE:
                assert len(orders) == 2 and max(orders) < n
            else:
                assert orders == [n, n]
            # with no base matrix the solve never folds: grad_dominant_eigvec's
            # input need not be alpha * B + c, and the oracle tests take this
            # call as their dense reference
            orders.clear()
            B = authority_matrix(matrix)
            grad_dominant_eigvec(B)
            ranking._dominant_eigvec(B, ranking._scale(B))
            assert orders == [n, n]


class TestPagerankNorm:
    def test_table2(self):
        scores = list(pagerank_norm(LM1, alpha=0.8).scores.values())
        assert scores == pytest.approx([0.182, 0.185, 0.620, 0.0126], abs=0.03)

    def test_table1_near_uniform(self):
        scores = list(pagerank_norm(LM0, alpha=0.8).scores.values())
        assert scores == pytest.approx([1 / 3] * 3, abs=0.01)

    def test_uniform_matrix(self):
        scores = list(pagerank_norm(lm(np.full((4, 4), 2.0)), alpha=0.8).scores.values())
        assert scores == pytest.approx([0.25] * 4, abs=1e-9)

    def test_zero_column_handled(self):
        L = np.array([[0.0, 1.0], [0.0, 1.0]])
        scores = pagerank_norm(lm(L), alpha=0.8).scores
        assert all(v > 0 for v in scores.values())
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_strict_positivity(self):
        assert all(v > 0 for v in pagerank_norm(LM1, alpha=0.8).scores.values())

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_stochastic_matrix_matches_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        L = rng.integers(0, 3, size=(n, n)) * (rng.random((n, n)) < 0.4)
        alpha = 0.8
        teleport = (1 - alpha) / n * np.ones((n, n))
        expected = alpha * stochastic_columns_loop(L.astype(float)) + teleport
        assert np.array_equal(stochastic_matrix(lm(L), alpha), expected)

    def test_alpha_domain(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(DataError):
                pagerank_norm(LM0, alpha=bad)


@pytest.mark.parametrize("values", [L0, L1], ids=["L0", "L1"])
@pytest.mark.parametrize(
    "solve, base",
    [(hits_pm_norm, lambda L: L.T @ L), (pagerank_norm, lambda L: L / L.sum(axis=0))],
    ids=["hits_pm_norm", "pagerank_norm"],
)
def test_power_residual_matches_dense(values, solve, base):
    # the reported residual is ||M v - lam v|| of the returned vector,
    # recomputed here from the dense matrix
    tol, alpha, n = 1e-10, 0.8, values.shape[0]
    result = solve(lm(values), alpha=alpha)
    v = np.sqrt(list(result.scores.values()))  # the scores are squared components
    M = alpha * base(values) + (1 - alpha) / n * np.ones((n, n))
    lam = float(v @ M @ v)
    assert result.residual == pytest.approx(np.linalg.norm(M @ v - lam * v), abs=1e-14)
    assert result.residual <= tol


@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.floats(1.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_count_matrices_certify_at_any_scale(seed, n, c):
    # the tolerance scales with the matrix, so c * L certifies wherever L
    # does, and the scale-free algorithms give L's scores
    L = np.random.default_rng(seed).integers(0, 6, size=(n, n)).astype(float)
    for algorithm in ("gradient", "hits_pm_norm", "pagerank_norm"):
        _, scaled, _ = rank_nodes(lm(c * L), algorithm=algorithm)
        if algorithm != "hits_pm_norm":  # its teleport term does not scale with L
            _, base, _ = rank_nodes(lm(L), algorithm=algorithm)
            for lbl, value in base.scores.items():
                assert abs(scaled.scores[lbl] - value) <= 1e-9, (algorithm, lbl)


class TestRankNodes:
    def test_argmax_single(self):
        ranked, _, _ = rank_nodes(LM1, algorithm="gradient", k=1)
        assert ranked[0][0] == NodeLabel("x", "4")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DataError, match="unknown algorithm 'x'"):
            rank_nodes(LM1, algorithm="x")

    def test_table2_top2_order(self):
        ranked, _, _ = rank_nodes(LM1, algorithm="gradient", kind="authority", k=2)
        assert [r[0].render() for r in ranked] == ["x_4", "x_3"]
        assert ranked[0][1] == pytest.approx(0.553, abs=0.005)
        assert ranked[1][1] == pytest.approx(0.446, abs=0.005)

    def test_multiplicity(self):
        eye2 = lm(np.eye(2))
        for algorithm, alpha, expected in [
            ("gradient", 0.8, 2),
            ("hits_pm_norm", 1.0, 2),
            ("hits_pm_norm", 0.8, 1),  # the teleport term splits the eigenvalue
            ("pagerank_norm", 0.8, 1),
        ]:
            _, result, _ = rank_nodes(eye2, algorithm=algorithm, alpha=alpha)
            assert result.multiplicity == expected, (algorithm, alpha)
            assert list(result.scores.values()) == pytest.approx([0.5, 0.5], abs=1e-15)
        _, result, _ = rank_nodes(LM1, algorithm="gradient")
        assert result.multiplicity == 1

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_authority_hub_duality(self, seed):
        # L v_authority, normalized, equals v_hub up to sign (simple top
        # singular value)
        rng = np.random.default_rng(seed)
        L = rng.uniform(0, 3, size=(5, 5))
        s = np.linalg.svd(L, compute_uv=False)
        if s[1] / s[0] > 0.999:
            return
        va, _, _ = grad_dominant_eigvec(authority_matrix(lm(L)))
        vh, _, _ = grad_dominant_eigvec(hub_matrix(lm(L)))
        mapped = L @ va
        mapped /= np.linalg.norm(mapped)
        assert abs(float(mapped @ vh)) == pytest.approx(1.0, abs=1e-6)


class TestDispersion:
    def result(self, scores):
        from trackmine.ranking import RankingResult

        labels = [NodeLabel("x", str(i + 1)) for i in range(len(scores))]
        return RankingResult(
            algorithm="gradient",
            matrix_kind="authority",
            alpha=None,
            scores=dict(zip(labels, scores)),
            iterations=1,
            residual=0.0,
        )

    def test_uniform(self):
        stats = dispersion(self.result([0.25] * 4))
        assert stats.shannon_entropy == pytest.approx(math.log(4), abs=1e-9)
        assert stats.participation_ratio == pytest.approx(4.0, abs=1e-9)

    def test_one_hot(self):
        stats = dispersion(self.result([1.0, 0.0, 0.0]))
        assert stats.shannon_entropy == 0.0
        assert stats.participation_ratio == pytest.approx(1.0)

    def test_concentrated_table_distribution(self):
        stats = dispersion(self.result([1.17e-4, 3.72e-4, 0.446, 0.553]))
        assert stats.participation_ratio == pytest.approx(
            1.0 / (0.446**2 + 0.553**2), rel=1e-2
        )

    def test_bounds(self):
        stats = dispersion(self.result([0.7, 0.2, 0.1]))
        assert 0.0 <= stats.shannon_entropy <= math.log(3)
        assert 1.0 <= stats.participation_ratio <= 3.0

    def test_zero_scores_rejected(self):
        with pytest.raises(DataError, match="ranking scores sum to zero"):
            dispersion(self.result([0.0, 0.0, 0.0]))


class TestCompareTopk:
    def test_identical(self):
        nodes = ["a_s1", "b_s2", "c_s3"]
        out = compare_topk(nodes, nodes, 3)
        assert out["common"] == set(nodes)
        assert out["jaccard"] == 1.0

    def test_disjoint(self):
        out = compare_topk(["a_s1"], ["b_s2"], 1)
        assert out["common"] == set()
        assert out["jaccard"] == 0.0

    def test_k_too_large(self):
        with pytest.raises(DataError):
            compare_topk(["a_s1"], ["b_s2"], 2)

    def test_accepts_ranked_tuples(self):
        ranked, _, _ = rank_nodes(LM1, algorithm="gradient", k=4)
        out = compare_topk(ranked, ranked, 4)
        assert out["jaccard"] == 1.0

    @pytest.mark.parametrize("form", ["labels", "pairs", "strings"])
    def test_labels_pairs_and_strings_compare_rendered_labels(self, form):
        # a NodeLabel is a tuple: it must not be read as a (label, score) pair
        a = [NodeLabel("RP", "s1"), NodeLabel("RP", "s2")]
        b = [NodeLabel("RP", "s1"), NodeLabel("LP", "s3")]
        if form == "pairs":
            a, b = [(lbl, 0.5) for lbl in a], [(lbl, 0.5) for lbl in b]
        elif form == "strings":
            a, b = [lbl.render() for lbl in a], [lbl.render() for lbl in b]
        out = compare_topk(a, b, 2)
        assert out == {"common": {"RP_s1"}, "only_a": {"RP_s2"}, "only_b": {"LP_s3"},
                       "jaccard": 1 / 3}
