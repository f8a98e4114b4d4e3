import json

import numpy as np
import pytest

from rmvhash import evaluation


def random_codes(rng, n, p):
    return rng.choice([-1, 1], size=(n, p)).astype(np.int8)


def brute_force_report(q, d, rel, top_k, radius):
    """Criterion-8-style oracle: pairwise distances, a sorted (distance,
    index) ranking per query, and a scan of each Hamming ball."""
    f, n = rel.shape
    p = q.shape[1]
    dist = [[evaluation.hamming_distance(q[i], d[j]) for j in range(n)] for i in range(f)]
    aps = []
    for i in range(f):
        order = sorted(range(n), key=lambda j: (dist[i][j], j))[:top_k]
        hits, ap = 0, 0.0
        for rank, j in enumerate(order, start=1):
            if rel[i, j]:
                hits += 1
                ap += hits / rank
        aps.append(ap / rel[i].sum() if rel[i].any() else 0.0)

    def balls(r):   # per query: (precision, recall, ball non-empty)
        out = []
        for i in range(f):
            ball = [j for j in range(n) if dist[i][j] <= r]
            hits = sum(rel[i, j] for j in ball)
            out.append((
                hits / len(ball) if ball else 0.0,
                hits / rel[i].sum() if rel[i].any() else 0.0,
                bool(ball),
            ))
        return out

    lookup = balls(radius)
    precs = [prec for prec, _, _ in lookup]
    nonempty = [prec for prec, _, full in lookup if full]
    curve = [
        (np.mean([rec for _, rec, _ in b]), np.mean([prec for prec, _, _ in b]))
        for b in map(balls, range(p + 1))
    ]
    return dict(
        map=np.mean(aps), mean=np.mean(precs), std=np.std(precs),
        coverage=len(nonempty) / f, nonempty=np.mean(nonempty) if nonempty else 0.0,
        curve=curve,
    )


def assert_matches_brute_force(report, q, d, rel, top_k, radius):
    want = brute_force_report(q, d, rel, top_k, radius)
    assert report.map == pytest.approx(want["map"], abs=1e-12)
    assert report.lookup_precision_mean == pytest.approx(want["mean"], abs=1e-12)
    assert report.lookup_precision_std == pytest.approx(want["std"], abs=1e-12)
    assert report.lookup_coverage == pytest.approx(want["coverage"], abs=1e-12)
    assert report.lookup_precision_nonempty == pytest.approx(want["nonempty"], abs=1e-12)
    np.testing.assert_allclose(report.pr_curve, want["curve"], rtol=0, atol=1e-12)


class TestHammingDistance:
    def test_examples(self):
        assert evaluation.hamming_distance([1, 1, 1], [1, 1, 1]) == 0
        assert evaluation.hamming_distance([1, -1, 1], [-1, 1, -1]) == 3
        assert evaluation.hamming_distance([1, 1, -1, -1], [1, -1, -1, 1]) == 2

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(0)
        q = random_codes(rng, 6, 16)
        d = random_codes(rng, 9, 16)
        dist = evaluation.hamming_distances(q, d)
        for i in range(6):
            for j in range(9):
                assert dist[i, j] == evaluation.hamming_distance(q[i], d[j])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluation.hamming_distance([1, 1], [1, 1, 1])
        with pytest.raises(ValueError):
            evaluation.hamming_distances(np.ones((2, 4)), np.ones((3, 5)))

    def test_empty_side_gives_empty_matrix(self):
        assert evaluation.hamming_distances(np.ones((0, 4)), np.ones((3, 4))).shape == (0, 3)
        assert evaluation.hamming_distances(np.ones((2, 70)), np.ones((0, 70))).shape == (2, 0)

    def test_long_codes_take_uint16(self):
        rng = np.random.default_rng(12)
        q = random_codes(rng, 3, 300)
        d = np.vstack([q[:1], -q[:1], random_codes(rng, 4, 300)])
        dist = evaluation.hamming_distances(q, d)
        assert dist.dtype == np.uint16
        assert dist[0, :2].tolist() == [0, 300]
        assert dist.tolist() == [[evaluation.hamming_distance(a, b) for b in d] for a in q]
        assert evaluation.hamming_distances(q[:, :255], d[:, :255]).dtype == np.uint8

    @pytest.mark.parametrize("p", [1, 7, 8, 9, 32, 63, 64, 65, 255, 256, 300])
    def test_matches_inner_product_formula(self, p):
        rng = np.random.default_rng(p)
        q = random_codes(rng, 5, p)
        d = np.vstack([q, -q, random_codes(rng, 11, p)])
        want = ((p - q.astype(float) @ d.T.astype(float)) / 2).astype(np.min_scalar_type(p))
        got = evaluation.hamming_distances(q, d)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [[[1, 0, 1, 1]], [[1, 2, 1, 1]], [[1, np.nan, 1, 1]]],
                             ids=["zero", "two", "nan"])
    @pytest.mark.parametrize("which", ["query_codes", "db_codes"])
    def test_non_sign_codes_rejected(self, bad, which):
        good = [[1, 1, 1, 1], [-1, -1, -1, -1]]
        q, d = (bad, good) if which == "query_codes" else (good, bad)
        with pytest.raises(ValueError, match=f"^{which} must hold only"):
            evaluation.hamming_distances(q, d)
        with pytest.raises(ValueError, match=f"^{which} must hold only"):
            evaluation.evaluate(q, d, np.ones((len(q), len(d)), bool))
        a, b = (bad[0], good[0]) if which == "query_codes" else (good[0], bad[0])
        arg = "a" if which == "query_codes" else "b"
        with pytest.raises(ValueError, match=f"^{arg} must hold only"):
            evaluation.hamming_distance(a, b)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 4)], ids=["1-D", "3-D"])
    @pytest.mark.parametrize("which", ["query_codes", "db_codes"])
    def test_codes_not_2d_rejected(self, shape, which):
        bad, good = -np.ones(shape), np.ones((2, 4))
        q, d = (bad, good) if which == "query_codes" else (good, bad)
        rel = np.ones((len(q), len(d)), bool)
        for fn, args in (
            (evaluation.hamming_distances, (q, d)),
            (evaluation.evaluate, (q, d, rel)),
            (evaluation.mean_average_precision, (q, d, rel, 10)),
            (evaluation.hash_lookup_precision, (q, d, rel, 2)),
            (evaluation.pr_curve, (q, d, rel)),
        ):
            with pytest.raises(ValueError, match=rf"^{which} must be a 2-D \(n, P\) array"):
                fn(*args)

    def test_range(self):
        rng = np.random.default_rng(1)
        dist = evaluation.hamming_distances(random_codes(rng, 5, 8), random_codes(rng, 7, 8))
        assert dist.min() >= 0
        assert dist.max() <= 8


class TestRelevance:
    def test_single_label_equality(self):
        rel = evaluation.relevance_matrix([0, 1], [0, 0, 1, 2])
        np.testing.assert_array_equal(
            rel, [[True, True, False, False], [False, False, True, False]]
        )

    def test_multi_label_shared(self):
        q = np.array([[1, 0, 1]])
        d = np.array([[0, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(
            evaluation.relevance_matrix(q, d), [[True, False]]
        )


class TestHashLookup:
    def test_identical_codes_full_ball(self):
        codes = np.ones((4, 8), dtype=np.int8)
        rel = np.array([[True, True, False, False]] * 1)
        mean, std, cov, ne = evaluation.hash_lookup_precision(
            codes[:1], codes, rel, radius=2
        )
        assert mean == pytest.approx(0.5)
        assert cov == 1.0
        assert ne == pytest.approx(0.5)

    def test_empty_ball_zero_and_coverage(self):
        q = np.ones((1, 8), dtype=np.int8)
        d = -np.ones((3, 8), dtype=np.int8)
        rel = np.ones((1, 3), dtype=bool)
        mean, std, cov, ne = evaluation.hash_lookup_precision(q, d, rel, radius=2)
        assert mean == 0.0
        assert cov == 0.0
        assert ne == 0.0

    def test_radius_zero_exact_match_only(self):
        q = np.array([[1, 1, 1, 1]])
        d = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [-1, -1, -1, -1]])
        rel = np.array([[False, True, True]])
        mean, _, cov, _ = evaluation.hash_lookup_precision(q, d, rel, radius=0)
        assert mean == 0.0
        assert cov == 1.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        q = random_codes(rng, 8, 12)
        d = random_codes(rng, 40, 12)
        rel = rng.random((8, 40)) < 0.3
        mean, std, cov, ne = evaluation.hash_lookup_precision(q, d, rel, radius=4)
        per_q = []
        nonempty = []
        for i in range(8):
            in_ball = [
                j for j in range(40)
                if evaluation.hamming_distance(q[i], d[j]) <= 4
            ]
            if not in_ball:
                per_q.append(0.0)
                continue
            p = sum(rel[i, j] for j in in_ball) / len(in_ball)
            per_q.append(p)
            nonempty.append(p)
        assert mean == pytest.approx(np.mean(per_q))
        assert std == pytest.approx(np.std(per_q))
        assert cov == pytest.approx(len(nonempty) / 8)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            evaluation.hash_lookup_precision(
                np.ones((1, 4)), np.ones((2, 4)), np.ones((1, 2), bool), radius=-1
            )


class TestAveragePrecision:
    def test_worked_example(self):
        # hits at ranks 1 and 3, two true neighbors total:
        # (1/1 + 2/3) / 2 = 0.8333...
        ap = evaluation.average_precision([1, 0, 1], l_q=2)
        assert ap == pytest.approx(5.0 / 6.0)

    def test_all_relevant_is_one(self):
        assert evaluation.average_precision([1, 1, 1, 1], l_q=4) == pytest.approx(1.0)

    def test_no_hits_zero(self):
        assert evaluation.average_precision([0, 0, 0], l_q=5) == 0.0

    def test_truncation_penalty(self):
        # missing neighbors outside the list lower AP via the l_q normalizer
        full = evaluation.average_precision([1, 1], l_q=2)
        trunc = evaluation.average_precision([1, 1], l_q=4)
        assert trunc == pytest.approx(full / 2)

    def test_invalid_lq(self):
        with pytest.raises(ValueError):
            evaluation.average_precision([1], l_q=0)

    def test_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(13)
        ranked = rng.random((6, 10)) < 0.4
        l_q = rng.integers(1, 15, size=6)
        got = evaluation.average_precision(ranked, l_q)
        assert got.shape == (6,)
        assert got.tolist() == [evaluation.average_precision(r, k) for r, k in zip(ranked, l_q)]


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        q = np.array([[1, 1, 1, 1]])
        d = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [-1, -1, -1, -1]])
        rel = np.array([[True, True, False]])
        assert evaluation.mean_average_precision(q, d, rel, top_k=3) == pytest.approx(1.0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(3)
        q = random_codes(rng, 10, 16)
        d = random_codes(rng, 60, 16)
        rel = rng.random((10, 60)) < 0.25
        top_k = 20
        got = evaluation.mean_average_precision(q, d, rel, top_k=top_k)
        aps = []
        for i in range(10):
            dists = [evaluation.hamming_distance(q[i], d[j]) for j in range(60)]
            order = sorted(range(60), key=lambda j: (dists[j], j))[:top_k]
            l_q = int(rel[i].sum())
            if l_q == 0:
                aps.append(0.0)
                continue
            hits = 0
            ap = 0.0
            for rank, j in enumerate(order, start=1):
                if rel[i, j]:
                    hits += 1
                    ap += hits / rank
            aps.append(ap / l_q)
        assert got == pytest.approx(np.mean(aps), abs=1e-12)

    def test_tie_break_by_index(self):
        q = np.array([[1, 1]])
        d = np.array([[1, -1], [1, -1]])  # equal distance 1
        rel = np.array([[False, True]])
        # the irrelevant item at index 0 is ranked first
        got = evaluation.mean_average_precision(q, d, rel, top_k=2)
        assert got == pytest.approx(0.5)

    def test_query_without_neighbors_contributes_zero(self):
        rng = np.random.default_rng(4)
        q = random_codes(rng, 2, 8)
        d = random_codes(rng, 5, 8)
        rel = np.zeros((2, 5), dtype=bool)
        rel[0] = True
        with_both = evaluation.mean_average_precision(q, d, rel, top_k=5)
        only_first = evaluation.mean_average_precision(q[:1], d, rel[:1], top_k=5)
        assert with_both == pytest.approx(only_first / 2)


class TestPrCurve:
    def test_max_radius_full_recall(self):
        rng = np.random.default_rng(5)
        q = random_codes(rng, 4, 10)
        d = random_codes(rng, 20, 10)
        rel = rng.random((4, 20)) < 0.4
        curve = evaluation.pr_curve(q, d, rel)
        assert len(curve) == 11
        assert curve[-1][0] == pytest.approx(1.0)
        assert curve[-1][1] == pytest.approx(rel.mean(axis=1).mean())

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(6)
        q = random_codes(rng, 5, 12)
        d = random_codes(rng, 30, 12)
        rel = rng.random((5, 30)) < 0.3
        curve = evaluation.pr_curve(q, d, rel)
        recalls = [r for r, _ in curve]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(7)
        q = random_codes(rng, 3, 6)
        d = random_codes(rng, 15, 6)
        rel = rng.random((3, 15)) < 0.5
        curve = evaluation.pr_curve(q, d, rel)
        for radius in range(7):
            precs, recs = [], []
            for i in range(3):
                ball = [
                    j for j in range(15)
                    if evaluation.hamming_distance(q[i], d[j]) <= radius
                ]
                hits = sum(rel[i, j] for j in ball)
                precs.append(hits / len(ball) if ball else 0.0)
                recs.append(hits / rel[i].sum() if rel[i].sum() else 0.0)
            assert curve[radius][0] == pytest.approx(np.mean(recs))
            assert curve[radius][1] == pytest.approx(np.mean(precs))


class TestEvaluate:
    def test_global_bit_flip_invariance(self):
        rng = np.random.default_rng(8)
        q = random_codes(rng, 6, 16)
        d = random_codes(rng, 40, 16)
        rel = rng.random((6, 40)) < 0.3
        a = evaluation.evaluate(q, d, rel)
        b = evaluation.evaluate(-q, -d, rel)
        assert a.map == pytest.approx(b.map)
        assert a.lookup_precision_mean == pytest.approx(b.lookup_precision_mean)
        assert a.pr_curve == b.pr_curve

    def test_all_relevant_map_one(self):
        rng = np.random.default_rng(9)
        q = random_codes(rng, 3, 8)
        d = random_codes(rng, 10, 8)
        rel = np.ones((3, 10), dtype=bool)
        report = evaluation.evaluate(q, d, rel)
        assert report.map == pytest.approx(1.0)
        assert report.lookup_precision_nonempty in (0.0, pytest.approx(1.0))

    def test_report_serialization(self, tmp_path):
        rng = np.random.default_rng(10)
        q = random_codes(rng, 4, 8)
        d = random_codes(rng, 12, 8)
        rel = rng.random((4, 12)) < 0.4
        report = evaluation.evaluate(q, d, rel, top_k=5, radius=2)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "pr.csv"
        report.to_json(jpath)
        report.pr_csv(cpath)
        payload = json.loads(jpath.read_text())
        assert payload["map"] == pytest.approx(report.map)
        assert payload["top_k"] == 5
        lines = cpath.read_text().strip().split("\n")
        assert lines[0] == "radius,recall,precision"
        assert len(lines) == 1 + 9  # header + radii 0..8


class TestBlockedPass:
    @pytest.mark.parametrize("block_rows, blocks", [(1, [1] * 7), (3, [3, 3, 1]), (None, [7])])
    @pytest.mark.parametrize("top_k, radius", [(5, 2), (40, 13), (1, 0)],
                             ids=["small", "k-above-n-radius-above-p", "k1-r0"])
    def test_matches_brute_force(self, monkeypatch, block_rows, blocks, top_k, radius):
        rng = np.random.default_rng(11)
        q = random_codes(rng, 7, 9)
        d = random_codes(rng, 23, 9)
        rel = rng.random((7, 23)) < 0.3
        rel[2] = False   # a query without neighbors
        calls, packed = [], []
        distances, pack = evaluation._word_distances, evaluation._packed_pair
        monkeypatch.setattr(
            evaluation, "_word_distances",
            lambda a, b, p: calls.append(len(a)) or distances(a, b, p),
        )
        monkeypatch.setattr(
            evaluation, "_packed_pair", lambda a, b: packed.append((len(a), len(b))) or pack(a, b)
        )
        if block_rows:
            monkeypatch.setattr(evaluation, "_BLOCK", block_rows * 23)
        report = evaluation.evaluate(q, d, rel, top_k=top_k, radius=radius)
        assert calls == blocks
        assert packed == [(7, 23)]   # both code sets packed once, whatever the blocks
        assert_matches_brute_force(report, q, d, rel, top_k, radius)

    def test_long_codes_match_brute_force(self):
        rng = np.random.default_rng(14)
        q = random_codes(rng, 3, 300)
        d = np.vstack([q, random_codes(rng, 6, 300)])
        rel = rng.random((3, 9)) < 0.5
        report = evaluation.evaluate(q, d, rel, top_k=4, radius=140)
        assert len(report.pr_curve) == 301
        assert_matches_brute_force(report, q, d, rel, 4, 140)

    @pytest.mark.parametrize("n_query, n_db, top_k", [(0, 4, 1), (2, 0, 1), (2, 4, 0)],
                             ids=["no-queries", "no-database", "top-k-zero"])
    def test_rejected(self, n_query, n_db, top_k):
        q, d = np.ones((n_query, 4)), np.ones((n_db, 4))
        with pytest.raises(ValueError):
            evaluation.evaluate(q, d, np.ones((n_query, n_db), bool), top_k=top_k)

    def test_relevance_shape_checked(self):
        with pytest.raises(ValueError, match="relevance"):
            evaluation.evaluate(np.ones((2, 4)), np.ones((3, 4)), np.ones((3, 2), bool))
