"""Property tests for the drift monitor's bitwise contract (Hypothesis).

``DriftMonitor.check`` evaluates both ECDFs only at the batch's own
points; :func:`repro.serving.drift.ks_statistic` evaluates them on the
merged grid of both samples. The contract: for every feature the two
give the same float, bit for bit (``uint64`` view), with the monitor's
exact-mass rule standing in for KS on constant reference columns, and
the drifted and skipped feature lists match the per-feature oracle.

Inputs are built to hit the places the two evaluations could part:
ties (small integers, rounded values, signed zeros), NaN and +-inf in
both samples, constant columns (kept, moved, or within float noise),
all-non-finite columns, 1-row batches, batches larger than the
reference, ``max_reference`` subsampling, and batches shifted by the
ADBench-mode taxonomy injectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import get_injector
from repro.serving import DriftMonitor
from repro.serving.drift import _CONST_ATOL, _CONST_RTOL, ks_statistic

#: Column generators: (rng, n, shift) -> values.
COLUMN_KINDS = {
    "normal": lambda rng, n, shift: rng.normal(shift, 1.0, n),
    "small_int": lambda rng, n, shift: rng.integers(-2, 3, n) + np.round(shift),
    "rounded": lambda rng, n, shift: np.round(rng.normal(shift, 1.0, n), 1),
    "signed_zero": lambda rng, n, shift: rng.choice([-0.0, 0.0, 1.0 + shift], n),
    "constant": lambda rng, n, shift: np.full(n, 3.0 + shift),
    "constant_noise": lambda rng, n, shift: 3.0 + rng.choice([0.0, 1e-13, shift], n),
}
NON_FINITE = np.array([np.nan, np.inf, -np.inf])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
shifts = st.sampled_from([0.0, 0.0, 0.5, 3.0])
#: Share of cells replaced by NaN/+-inf; 1.0 makes the column all-non-finite.
non_finite_rates = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0])
columns = st.tuples(st.sampled_from(sorted(COLUMN_KINDS)), shifts,
                    non_finite_rates, non_finite_rates)


def _poke_non_finite(rng, values, rate):
    hit = rng.random(len(values)) < rate  # rate 1.0 hits every cell
    values[hit] = rng.choice(NON_FINITE, int(hit.sum()))
    return values


def _matrices(seed, specs, n_reference, n_batch):
    rng = np.random.default_rng(seed)
    reference = np.empty((n_reference, len(specs)))
    batch = np.empty((n_batch, len(specs)))
    for j, (kind, shift, ref_rate, batch_rate) in enumerate(specs):
        reference[:, j] = _poke_non_finite(rng, COLUMN_KINDS[kind](rng, n_reference, 0.0), ref_rate)
        batch[:, j] = _poke_non_finite(rng, COLUMN_KINDS[kind](rng, n_batch, shift), batch_rate)
    return reference, batch


def oracle(monitor, X):
    """Per-feature statistics from ``ks_statistic`` on the kept reference."""
    stats = np.zeros(X.shape[1])
    skipped = []
    for j in range(X.shape[1]):
        reference = monitor._reference[:, j]
        reference = reference[np.isfinite(reference)]
        values = X[:, j][np.isfinite(X[:, j])]
        if len(reference) == 0 or len(values) == 0:
            skipped.append(j)
        elif reference.min() == reference.max():
            moved = ~np.isclose(values, reference[0], rtol=_CONST_RTOL, atol=_CONST_ATOL)
            stats[j] = float(moved.mean())
        else:
            stats[j] = ks_statistic(reference, values)
    return stats, np.flatnonzero(stats > monitor.threshold).tolist(), skipped


def assert_matches_oracle(monitor, X):
    report = monitor.check(X)
    stats, drifted, skipped = oracle(monitor, X)
    np.testing.assert_array_equal(report.statistics.view(np.uint64), stats.view(np.uint64))
    assert report.drifted_features == drifted
    assert report.skipped_features == skipped


@given(seed=seeds,
       specs=st.lists(columns, min_size=1, max_size=6),
       n_reference=st.integers(min_value=1, max_value=60),
       n_batch=st.one_of(st.just(1), st.integers(min_value=1, max_value=120)),
       max_reference=st.integers(min_value=1, max_value=80),
       threshold=st.sampled_from([0.05, 0.2, 1.0]))
@settings(max_examples=300, deadline=None)
def test_check_matches_ks_oracle_bitwise(seed, specs, n_reference, n_batch,
                                         max_reference, threshold):
    reference, batch = _matrices(seed, specs, n_reference, n_batch)
    monitor = DriftMonitor(threshold=threshold, max_reference=max_reference,
                           random_state=seed).fit(reference)
    assert len(monitor._reference) == min(n_reference, max_reference)
    assert_matches_oracle(monitor, batch)


@given(seed=seeds, n_batch=st.integers(min_value=1, max_value=300))
@settings(max_examples=50, deadline=None)
def test_tie_heavy_batches_and_their_single_rows(seed, n_batch):
    """Rounded (tie-heavy) batches and 1-row slices of them against a
    rounded reference."""
    rng = np.random.default_rng(seed)
    reference = np.round(rng.normal(size=(40, 3)), 1)
    batch = np.round(rng.normal(0.3, 1.0, size=(n_batch, 3)), 1)
    monitor = DriftMonitor(threshold=0.2).fit(reference)
    assert_matches_oracle(monitor, batch)
    for row in batch[:5]:
        assert_matches_oracle(monitor, row[None, :])


@pytest.mark.parametrize("mode", ["local", "global", "cluster"])
@given(seed=seeds, n_batch=st.integers(min_value=1, max_value=200),
       decimals=st.sampled_from([None, 0, 1]))
@settings(max_examples=25, deadline=None)
def test_taxonomy_shifted_batches(mode, seed, n_batch, decimals):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(150, 2))
    reference = latent @ rng.normal(size=(2, 7)) + rng.normal(0.0, 0.3, size=(150, 7))
    reference[:, 6] = 1.0  # a constant (one-hot-like) column
    injector = get_injector(mode).fit(reference, np.random.default_rng(seed))
    batch = injector.transform(reference[rng.integers(0, 150, n_batch)],
                               np.random.default_rng(seed + 1))
    if decimals is not None:
        reference, batch = np.round(reference, decimals), np.round(batch, decimals)
    monitor = DriftMonitor(threshold=0.2, max_reference=100, random_state=seed).fit(reference)
    assert_matches_oracle(monitor, batch)
