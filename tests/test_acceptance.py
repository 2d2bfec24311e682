"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 5-8 operate on synthetic desk-scale recordings since
real two-IMU recordings are not distributable.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from known_names import KNOWN_FEATURE_NAMES, KNOWN_KINDS
from imufresh.calculators import (
    compute_feature,
    decode_feature_name,
    default_settings,
    settings_from_feature_names,
)
from imufresh.extraction import FeatureMatrix, extract
from imufresh.forest import ForestParams, cross_validate
from imufresh.names import FeatureName
from imufresh.pipeline import PipelineConfig, predict, run_full_pipeline
from imufresh.selection import (
    benjamini_hochberg,
    benjamini_yekutieli,
    fisher_exact_test,
    kendall_tau,
    kendall_tau_test,
    ks_statistic,
    ks_two_sample_test,
    select_features,
)
from imufresh.synth import synth_multi_activity, synth_walk_run
from imufresh.timeseries import load_recording, save_labels, save_recording, segment_fixed

QL_GRID = (0.0, 0.2, 0.4, 0.6, 0.8)
QH_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Criterion 5 training resources: 560 s walk/run at 100 Hz, full pipeline."""
    root = tmp_path_factory.mktemp("desk")
    data = synth_walk_run(duration_s=560.0, sample_rate_hz=100.0, window_seconds=4.0, seed=42)
    rec = root / "rec.csv"
    lab = root / "labels.csv"
    save_recording(data.recording, str(rec))
    save_labels(data.labels, str(lab))
    config = PipelineConfig(
        recording=str(rec),
        labels=str(lab),
        output_dir=str(root / "artifacts"),
        window_seconds=4.0,
        q=0.05,
        top_k=20,
        repeats=10,
        seed=7,
        n_trees=100,
        cv_folds=10,
        auto_pair=("_l", "_r"),
    )
    started = time.perf_counter()
    result = run_full_pipeline(config)
    elapsed = time.perf_counter() - started
    return root, config, result, elapsed


def test_criterion_1_codec_fidelity():
    """All 20 corpus names decode and re-encode byte-identically; the grouped
    settings span exactly 10 kinds; runtime < 1 s."""
    started = time.perf_counter()
    for name in KNOWN_FEATURE_NAMES:
        assert decode_feature_name(name).canonical() == name
    settings = settings_from_feature_names(KNOWN_FEATURE_NAMES)
    assert set(settings.kinds) == KNOWN_KINDS
    assert len(settings.kinds) == 10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 20/20 names round-trip over 10 kinds in {elapsed:.3f} s")


def test_criterion_2_calculator_oracles():
    """1000 seeded random series (lengths 5-50): change_quantiles over the
    full grid and agg_linear_trend match brute force to |delta| <= 1e-9."""
    rng = np.random.default_rng(20240501)
    cq_grid = [
        (ql, qh, isabs, f_agg)
        for ql in QL_GRID
        for qh in QH_GRID
        if ql < qh
        for isabs in (False, True)
        for f_agg in ("mean", "var")
    ]
    alt_grid = [
        (f_agg, chunk_len, attr)
        for f_agg in ("max", "min", "mean")
        for chunk_len in (5, 10, 50)
        for attr in ("slope", "intercept", "stderr", "rvalue")
    ]
    checks = 0
    for _ in range(1000):
        x = rng.standard_normal(int(rng.integers(5, 51)))
        xs = list(x)
        for ql, qh, isabs, f_agg in cq_grid:
            got = compute_feature(
                x, "change_quantiles", {"ql": ql, "qh": qh, "isabs": isabs, "f_agg": f_agg}
            )
            want = oracles.change_quantiles(xs, ql, qh, isabs, f_agg)
            assert abs(got - want) <= 1e-9
            checks += 1
        for f_agg, chunk_len, attr in alt_grid:
            got = compute_feature(
                x, "agg_linear_trend",
                {"f_agg": f_agg, "chunk_len": chunk_len, "attr": attr},
            )
            want = oracles.agg_linear_trend(xs, f_agg, chunk_len, attr)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert abs(got - want) <= 1e-9
            checks += 1
    print(f"\nACCEPTANCE 2 PASS: {checks} oracle comparisons within 1e-9")


def test_criterion_3_statistical_tests():
    """fisher_exact matches hypergeometric enumeration on all 2x2 tables with
    margins <= 12 (1e-10); Kendall matches O(n^2) pair counting for n <= 50;
    KS p within 1e-6 of direct series evaluation."""
    n_tables = 0
    for a in range(13):
        for b in range(13 - a):
            for c in range(13 - a):
                for d in range(13):
                    r2, c2 = c + d, b + d
                    if r2 > 12 or c2 > 12:
                        continue
                    if min(a + b, r2, a + c, c2) == 0:
                        continue
                    got = fisher_exact_test([[a, b], [c, d]])
                    want = oracles.fisher_exact([[a, b], [c, d]])
                    assert abs(got - want) <= 1e-10, (a, b, c, d)
                    n_tables += 1

    rng = np.random.default_rng(99)
    n_kendall = 0
    while n_kendall < 150:
        n = int(rng.integers(3, 51))
        x = rng.integers(0, 8, n).astype(float)
        y = (0.5 * x + rng.integers(0, 5, n)).astype(float)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        want_tau, want_p = oracles.kendall(list(x), list(y))
        assert abs(kendall_tau(x, y) - want_tau) <= 1e-10
        assert abs(kendall_tau_test(x, y) - want_p) <= 1e-10
        n_kendall += 1

    n_ks = 0
    for seed in range(200):
        local = np.random.default_rng(1000 + seed)
        a = local.standard_normal(int(local.integers(1, 60)))
        b = local.standard_normal(int(local.integers(1, 60))) + local.uniform(-2, 2)
        d = ks_statistic(a, b)
        want = oracles.ks_p(d, a.size, b.size)
        assert abs(ks_two_sample_test(a, b) - want) <= 1e-6
        n_ks += 1

    print(
        f"\nACCEPTANCE 3 PASS: fisher on {n_tables} tables (1e-10), "
        f"kendall on {n_kendall} vectors, KS on {n_ks} sample pairs (1e-6)"
    )


def test_criterion_4_fdr_control():
    """500 null features, balanced binary target, q=0.05, 20 seeds: mean
    empirical FDR <= 0.05 + 2*MC-stderr and BY-selected is a subset of
    BH-selected on every replicate."""
    q = 0.05
    n_rows, n_cols, n_seeds = 100, 500, 20
    names = tuple(FeatureName(f"n{i:04d}", "minimum") for i in range(n_cols))
    target = ["a"] * (n_rows // 2) + ["b"] * (n_rows // 2)
    fdrs = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        matrix = FeatureMatrix(
            feature_names=names,
            values=rng.standard_normal((n_rows, n_cols)),
            window_ids=np.arange(n_rows),
            labels=None,
        )
        report = select_features(matrix, target, q=q, method="by")
        n_false = len(report.selected)  # every feature is null
        fdrs.append(n_false / max(1, n_false))

        p_values = np.asarray([t.p_value for t in report.tests])
        by_set = set(benjamini_yekutieli(p_values, q))
        bh_set = set(benjamini_hochberg(p_values, q))
        assert by_set <= bh_set

    mean_fdr = float(np.mean(fdrs))
    stderr = float(np.std(fdrs, ddof=1)) / math.sqrt(n_seeds) if n_seeds > 1 else 0.0
    assert mean_fdr <= q + 2 * stderr
    print(
        f"\nACCEPTANCE 4 PASS: mean empirical FDR {mean_fdr:.3f} <= "
        f"{q} + 2*{stderr:.3f}; BY subset of BH on all {n_seeds} replicates"
    )


def test_criterion_5_end_to_end_desk_scale(desk_run, tmp_path):
    """560 s / 100 Hz walk-run pipeline: >= 1 feature selected at q=0.05,
    specialized top-20 10-fold CV >= 0.95, hold-out (new seed + drift)
    accuracy >= 0.85, full run < 5 min."""
    root, config, result, elapsed = desk_run
    assert result.matrix.n_rows == 140  # 560 s of 4 s windows
    assert len(result.report.selected) >= 1
    assert len(result.top_features) == 20
    assert result.cv.mean_accuracy >= 0.95
    assert elapsed < 300.0

    holdout = synth_walk_run(
        duration_s=120.0, sample_rate_hz=100.0, window_seconds=4.0, seed=4242, drift=1.03
    )
    rec = tmp_path / "holdout.csv"
    lab = tmp_path / "holdout_labels.csv"
    save_recording(holdout.recording, str(rec))
    save_labels(holdout.labels, str(lab))
    timeline = predict(
        result.model_path,
        result.settings_path,
        str(rec),
        result.manifest_path,
        labels_path=str(lab),
    )
    accuracy = timeline.accuracy()
    assert accuracy is not None and accuracy >= 0.85
    print(
        f"\nACCEPTANCE 5 PASS: {len(result.report.selected)}/{result.matrix.n_cols} "
        f"selected, CV {result.cv.mean_accuracy:.3f} >= 0.95, "
        f"hold-out {accuracy:.3f} >= 0.85, run {elapsed:.1f} s < 300 s"
    )


def test_criterion_6_group_cv_analogue():
    """5 synthetic persons x 4 activities: group 5-fold CV mean accuracy
    >= 0.80 with every fold person-pure."""
    matrices = []
    labels: list[str] = []
    groups: list[str] = []
    settings = None
    for person in range(5):
        data = synth_multi_activity(person=person, duration_s=96.0, seed=11)
        windows = segment_fixed(data.recording, 4.0, data.labels)
        if settings is None:
            settings = default_settings(data.recording.channels)
        matrix = extract(windows, data.recording, settings)
        matrices.append(matrix.values)
        labels.extend(matrix.labels)
        groups.extend([f"person{person}"] * matrix.n_rows)
    stacked = FeatureMatrix(
        feature_names=settings.features,
        values=np.vstack(matrices),
        window_ids=np.arange(sum(m.shape[0] for m in matrices)),
        labels=tuple(labels),
    )

    report = select_features(stacked, labels, q=0.05)
    assert len(report.selected) >= 1
    selected = stacked.subset(report.selected)
    nan_free = [
        f for f in selected.feature_names if not np.any(np.isnan(selected.column(f)))
    ]
    usable = selected.subset(nan_free)

    cv = cross_validate(usable, labels, 5, ForestParams(n_trees=100, seed=3), groups=groups)
    fold = np.asarray(cv.fold_assignment)
    for f in range(5):
        persons_in_fold = {groups[i] for i in np.nonzero(fold == f)[0]}
        assert len(persons_in_fold) == 1
    assert cv.mean_accuracy >= 0.80
    print(
        f"\nACCEPTANCE 6 PASS: group 5-fold CV {cv.mean_accuracy:.3f} >= 0.80 "
        f"over {usable.n_cols} selected features; all folds person-pure"
    )


def test_criterion_7_determinism_and_restriction(desk_run, tmp_path_factory):
    """Identical seeded runs produce identical models and predictions;
    restricted extraction equals the full-matrix columns bitwise."""
    root = tmp_path_factory.mktemp("determinism")
    data = synth_walk_run(duration_s=120.0, sample_rate_hz=50.0, seed=5)
    rec = root / "rec.csv"
    lab = root / "labels.csv"
    save_recording(data.recording, str(rec))
    save_labels(data.labels, str(lab))

    results = []
    for name in ("runA", "runB"):
        config = PipelineConfig(
            recording=str(rec),
            labels=str(lab),
            output_dir=str(root / name),
            repeats=2,
            seed=123,
            n_trees=40,
            auto_pair=("_l", "_r"),
        )
        results.append(run_full_pipeline(config))
    ra, rb = results
    assert Path(ra.model_path).read_bytes() == Path(rb.model_path).read_bytes()
    timeline_a = predict(ra.model_path, ra.settings_path, str(rec), ra.manifest_path,
                         out_path=str(root / "tl_a.csv"))
    timeline_b = predict(rb.model_path, rb.settings_path, str(rec), rb.manifest_path,
                         out_path=str(root / "tl_b.csv"))
    assert (root / "tl_a.csv").read_bytes() == (root / "tl_b.csv").read_bytes()
    assert timeline_a == timeline_b

    # restriction consistency, on the criterion-5 artifacts: re-extracting
    # only the top-k features reproduces the step-2 matrix columns bitwise
    _, config5, result5, _ = desk_run
    engineered = load_recording(result5.engineered_path)
    windows = segment_fixed(engineered, config5.window_seconds, labels=None)
    restricted_settings = settings_from_feature_names(
        [f.canonical() for f in result5.top_features]
    )
    restricted = extract(windows, engineered, restricted_settings)
    full_subset = result5.matrix.subset(result5.top_features)
    id_to_row = {wid: i for i, wid in enumerate(restricted.window_ids)}
    rows = [id_to_row[wid] for wid in full_subset.window_ids]
    assert restricted.values[rows].tobytes() == full_subset.values.tobytes()
    print(
        "\nACCEPTANCE 7 PASS: seeded reruns bitwise-identical; restricted "
        f"extraction of {full_subset.n_cols} columns x {len(rows)} windows bitwise-equal"
    )


def test_criterion_8_deployment_speed(desk_run, tmp_path):
    """Restricted 20-feature extraction + prediction over a 45 min synthetic
    recording completes in < 20 s."""
    _, config, result, _ = desk_run
    data = synth_walk_run(duration_s=2700.0, sample_rate_hz=100.0, window_seconds=4.0, seed=777)
    rec = tmp_path / "long.csv"
    save_recording(data.recording, str(rec))

    started = time.perf_counter()
    timeline = predict(
        result.model_path,
        result.settings_path,
        str(rec),
        result.manifest_path,
        out_path=str(tmp_path / "long_timeline.csv"),
    )
    elapsed = time.perf_counter() - started
    assert len(timeline.rows) == 675  # 2700 s of 4 s windows
    assert elapsed < 20.0
    print(
        f"\nACCEPTANCE 8 PASS: 45 min recording -> {len(timeline.rows)} windows "
        f"predicted in {elapsed:.2f} s < 20 s"
    )
