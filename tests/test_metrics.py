import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ascending_midranks
from sagad.metrics import (
    _descending_order,
    _midranks,
    auroc,
    average_precision,
    evaluate,
    quartile_report,
    rec_at_k,
)


def pairwise_auroc(scores, labels):
    """Brute-force oracle: all positive-negative pairs, ties half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


FIX_SCORES = np.asarray([0.9, 0.8, 0.3, 0.1])
FIX_LABELS = np.asarray([1, 0, 1, 0])


class TestAuroc:
    def test_fixture_case(self):
        assert auroc(FIX_SCORES, FIX_LABELS) == pytest.approx(0.75)

    def test_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_tied_infinities_give_half(self):
        assert auroc([np.inf, np.inf], [1, 0]) == 0.5
        assert auroc([-np.inf, 1.0, -np.inf], [0, 1, 1]) == 0.75

    @pytest.mark.parametrize("labels,message", [
        ([1, 1], "both classes"), ([[0, 1]], "1-d array"), ([0, 2], "binary 0/1"),
    ])
    def test_invalid_labels_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            auroc([0.1, 0.2], labels)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.random(n), 2)  # induce ties
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            assert auroc(scores, labels) == pytest.approx(
                pairwise_auroc(scores, labels), abs=1e-12
            )

    def test_equals_pairwise_oracle_on_infinite_and_signed_zero_ties(self):
        rng = np.random.default_rng(4)
        values = np.asarray([0.0, -0.0, 0.5, np.inf, -np.inf])
        for trial in range(300):
            n = int(rng.integers(2, 40))
            scores = rng.choice(values[: int(rng.integers(2, 6))], n)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            assert auroc(scores, labels) == pairwise_auroc(scores, labels), (scores, labels)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_transforms(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        n = 30
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            return
        base = auroc(scores, labels)
        assert auroc(scale * scores + shift, labels) == pytest.approx(base, abs=1e-12)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


class TestAveragePrecision:
    def test_fixture_case(self):
        assert average_precision(FIX_SCORES, FIX_LABELS) == pytest.approx(5.0 / 6.0)

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.arange(n, 0, -1).astype(float)
        labels = np.zeros(n, dtype=int)
        labels[-1] = 1
        assert average_precision(scores, labels) == pytest.approx(1.0 / n)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            average_precision([0.5, 0.2], [0, 0])

    def test_bounded_by_worst_ordering_and_one(self):
        # AP is minimized when every positive is ranked after every negative;
        # that value can dip slightly below prevalence, so the exact lower
        # bound is (1/P) sum_i i/(N-P+i)
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 80))
            scores = rng.random(n)
            labels = rng.integers(0, 2, n)
            p = int(labels.sum())
            if p == 0:
                continue
            ap = average_precision(scores, labels)
            floor = np.mean([i / (n - p + i) for i in range(1, p + 1)])
            assert floor - 1e-12 <= ap <= 1.0 + 1e-12

    def test_equals_one_iff_positives_first(self):
        scores = np.asarray([0.7, 0.6, 0.5, 0.4])
        assert average_precision(scores, [1, 1, 0, 0]) == 1.0
        assert average_precision(scores, [1, 0, 1, 0]) < 1.0

    def test_tie_break_by_node_id(self):
        # tied scores: the earlier node id ranks first
        scores = np.asarray([0.5, 0.5])
        assert average_precision(scores, [1, 0]) == pytest.approx(1.0)
        assert average_precision(scores, [0, 1]) == pytest.approx(0.5)


class TestRecAtK:
    def test_fixture_case(self):
        assert rec_at_k(FIX_SCORES, FIX_LABELS, k=2) == pytest.approx(0.5)

    def test_perfect(self):
        assert rec_at_k([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0

    def test_k_equals_n(self):
        assert rec_at_k(FIX_SCORES, FIX_LABELS, k=4) == 1.0

    def test_default_k_is_positive_count(self):
        rep = evaluate(FIX_SCORES, FIX_LABELS)
        assert rep.k_used == 2
        assert rep.rec_at_k == rec_at_k(FIX_SCORES, FIX_LABELS, k=2)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError, match="k must be positive"):
            rec_at_k(FIX_SCORES, FIX_LABELS, k=0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        values = [rec_at_k(scores, labels, k) for k in range(1, 41)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestEvaluate:
    """``evaluate`` ranks, orders and counts from one ``_descending_order``;
    ``auroc``, ``average_precision`` and ``rec_at_k`` each take that order
    on their own, and ``evaluate`` must return what they do bit for bit.
    The ranks themselves are checked against an ascending sort in
    ``TestMidranks``, and AUROC against the pairwise count in ``TestAuroc``."""

    POOL = np.asarray([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300, np.inf, -np.inf, np.nan, -np.nan])

    @staticmethod
    def _reference(scores, labels, k):
        k_used = int(np.sum(labels == 1)) if k is None else k
        return (auroc(scores, labels), average_precision(scores, labels),
                rec_at_k(scores, labels, k_used), k_used)

    def test_equals_the_single_metric_functions_on_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(600):
            n = int(rng.integers(2, 120))
            if trial % 3 == 0:  # few distinct values: long tied runs
                scores = rng.integers(0, int(rng.integers(1, 6)), n) / 4.0
            elif trial % 3 == 1:  # signed zeros, infinities, NaNs
                scores = rng.choice(self.POOL, n)
            else:
                scores = np.where(rng.random(n) < 0.5, rng.choice(self.POOL, n), rng.random(n))
            labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int64)
            if labels.min() == labels.max():
                continue
            k = None if trial % 4 else int(rng.integers(1, n + 5))
            rep = evaluate(scores, labels, k)
            assert (rep.auroc, rep.auprc, rep.rec_at_k, rep.k_used) == self._reference(
                scores, labels, k), (scores, labels, k)

    def test_errors_in_the_reference_order(self):
        with pytest.raises(ValueError, match="both classes"):
            evaluate([0.5, 0.2], [0, 0], k=0)
        with pytest.raises(ValueError, match="k must be positive"):
            evaluate(FIX_SCORES, FIX_LABELS, k=0)
        with pytest.raises(ValueError, match="do not match"):
            evaluate(FIX_SCORES[:3], FIX_LABELS)

    @pytest.mark.parametrize("metric", [auroc, average_precision, rec_at_k, evaluate])
    @pytest.mark.parametrize("scores, labels", [([0.9, 0.1, 0.5], [1, 0]), ([0.9], [1, 0]),
                                                ([[0.9, 0.1]], [1, 0])])
    def test_scores_and_labels_must_match(self, metric, scores, labels):
        """Every metric names both shapes, before any other check on the
        scores; a longer score list must not be ranked silently."""
        message = (f"scores of shape {np.shape(scores)} do not match labels of shape "
                   f"{np.shape(labels)}")
        with pytest.raises(ValueError, match=re.escape(message)):
            metric(scores, labels)

    def test_peak_memory_on_distinct_scores(self):
        """At most 7.5 n-long f64 arrays at once: the sort's input, output
        and work space, the sorted scores, the runs, the ranks and AP's
        running precision, not all alive together."""
        n = 200_000
        rng = np.random.default_rng(5)
        scores = rng.permutation(n) / n
        labels = (rng.random(n) < 0.1).astype(np.int8)
        evaluate(scores, labels)
        tracemalloc.start()
        try:
            evaluate(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 8 * n, peak / (8 * n)


class TestMidranks:
    """``_midranks`` reads the ascending midranks from the descending
    order; ``oracles.ascending_midranks`` takes them from an ascending
    sort, and the two must agree bit for bit."""

    def test_equal_the_ascending_sort_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(2000):
            n = int(rng.integers(1, 120))
            if trial % 3 == 0:  # few distinct values: long tied runs
                scores = rng.integers(0, int(rng.integers(1, 6)), n) / 4.0
            elif trial % 3 == 1:  # signed zeros, infinities, NaNs
                scores = rng.choice(TestEvaluate.POOL, n)
            else:
                scores = np.where(rng.random(n) < 0.5, rng.choice(TestEvaluate.POOL, n),
                                  rng.random(n))
            got = _midranks(scores, _descending_order(scores))
            assert got.tobytes() == ascending_midranks(scores).tobytes(), scores

    def test_nans_rank_last_in_node_id_order(self):
        scores = np.asarray([np.nan, 1.0, -np.nan, np.inf, 1.0, -np.inf])
        got = _midranks(scores, _descending_order(scores))
        assert got.tolist() == [5.0, 2.5, 6.0, 4.0, 2.5, 1.0]


class TestQuartiles:
    def test_sorting_contract(self):
        # 4 test anomalies with distinct homophily: one per quartile
        scores = np.asarray([0.9, 0.8, 0.7, 0.6, 0.2, 0.1])
        labels = np.asarray([1, 1, 1, 1, 0, 0])
        homophily = np.asarray([1.0, 0.7, 0.3, 0.0, 0.5, 0.5])
        rep = quartile_report(scores, labels, homophily, np.arange(6))
        assert rep.sizes == [1, 1, 1, 1]
        # Q1 holds the homophily-1.0 anomaly (node 0, top score): AP 1.0
        assert rep.auprc[0] == 1.0

    def test_identical_distributions_zero_gaps(self):
        # all quartiles see the same scores -> all gaps vanish
        scores = np.concatenate([np.full(8, 0.9), np.full(4, 0.1)])
        labels = np.asarray([1] * 8 + [0] * 4)
        homophily = np.concatenate([np.linspace(1, 0, 8), np.full(4, 0.5)])
        rep = quartile_report(scores, labels, homophily, np.arange(12))
        assert rep.auprc_gaps == [0.0, 0.0, 0.0]
        assert rep.auroc_gaps == [0.0, 0.0, 0.0]

    def test_remainder_assigned_to_early_quartiles(self):
        n_anom = 10
        scores = np.concatenate([np.random.default_rng(3).random(n_anom), [0.0] * 5])
        labels = np.asarray([1] * n_anom + [0] * 5)
        homophily = np.concatenate([np.linspace(1, 0, n_anom), np.full(5, 0.5)])
        rep = quartile_report(scores, labels, homophily, np.arange(15))
        assert rep.sizes == [3, 3, 2, 2]

    def test_isolated_anomalies_excluded(self):
        scores = np.asarray([0.9, 0.8, 0.7, 0.6, 0.5, 0.2])
        labels = np.asarray([1, 1, 1, 1, 1, 0])
        homophily = np.asarray([1.0, 0.7, 0.3, 0.0, np.nan, 0.5])
        rep = quartile_report(scores, labels, homophily, np.arange(6))
        assert sum(rep.sizes) == 4  # the NaN-homophily anomaly is dropped

    def test_too_few_anomalies_rejected(self):
        scores = np.asarray([0.9, 0.1, 0.1, 0.1])
        labels = np.asarray([1, 0, 0, 0])
        homophily = np.full(4, 0.5)
        with pytest.raises(ValueError, match="at least 4"):
            quartile_report(scores, labels, homophily, np.arange(4))
