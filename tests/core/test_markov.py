"""Tests for the Markov attribute-value predictors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arrays import pack_array, unpack_array
from repro.core.markov import SimpleMarkovModel, TwoDependentMarkovModel


class TestValidation:
    def test_invalid_states_rejected(self):
        model = SimpleMarkovModel(4)
        with pytest.raises(ValueError):
            model.fit([0, 1, 4])
        with pytest.raises(ValueError):
            model.fit([-1, 0])

    def test_untrained_prediction_rejected(self):
        with pytest.raises(RuntimeError):
            SimpleMarkovModel(4).predict_distribution([0])

    def test_invalid_steps_rejected(self):
        model = SimpleMarkovModel(4).fit([0, 1, 2, 3])
        with pytest.raises(ValueError):
            model.predict_distribution([0], steps=0)

    def test_history_requirements(self):
        simple = SimpleMarkovModel(4).fit([0, 1, 2])
        two = TwoDependentMarkovModel(4).fit([0, 1, 2])
        assert simple.history_needed == 1
        assert two.history_needed == 2
        with pytest.raises(ValueError):
            two.predict_distribution([1])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SimpleMarkovModel(0)
        with pytest.raises(ValueError):
            SimpleMarkovModel(4, smoothing=0.0)
        with pytest.raises(ValueError):
            SimpleMarkovModel(4, persistence=-1.0)


class TestSimpleMarkov:
    def test_learns_deterministic_cycle(self):
        seq = [0, 1, 2, 0, 1, 2] * 20
        model = SimpleMarkovModel(3, smoothing=0.01, persistence=0.0)
        model.fit(seq)
        assert model.predict_state([0]) == 1
        assert model.predict_state([1]) == 2
        assert model.predict_state([2]) == 0

    def test_multi_step_composition(self):
        seq = [0, 1, 2, 0, 1, 2] * 20
        model = SimpleMarkovModel(3, smoothing=0.01, persistence=0.0)
        model.fit(seq)
        assert model.predict_state([0], steps=2) == 2
        assert model.predict_state([0], steps=3) == 0

    def test_persistence_prior_for_unseen_states(self):
        model = SimpleMarkovModel(5, persistence=3.0)
        model.fit([0, 0, 0, 0])
        # State 4 was never observed: prediction should stay put.
        assert model.predict_state([4]) == 4

    def test_update_accumulates(self):
        model = SimpleMarkovModel(3, smoothing=0.01, persistence=0.0)
        model.fit([0, 1] * 10)
        model.update([1, 2] * 10)
        assert model.predict_state([0]) == 1
        dist = model.predict_distribution([1])
        assert dist[0] > 0.2 and dist[2] > 0.2


class TestTwoDependentMarkov:
    def test_combined_state_count(self):
        model = TwoDependentMarkovModel(3)
        assert model._n_condition_states() == 9
        assert model.encode(2, 1) == 7

    def test_direction_sensitivity(self):
        """The paper's sinusoid example: the pair (prev, cur) encodes
        whether the value is on a rising or falling slope."""
        up_down = [0, 1, 2, 3, 2, 1] * 30  # triangle wave
        model = TwoDependentMarkovModel(4, smoothing=0.01, persistence=0.0)
        model.fit(up_down)
        # Rising through 1 -> 2: next is 3.
        assert model.predict_state([1, 2]) == 3
        # Falling through 3 -> 2: next is 1.
        assert model.predict_state([3, 2]) == 1

    def test_simple_markov_cannot_disambiguate_slope(self):
        up_down = [0, 1, 2, 3, 2, 1] * 30
        model = SimpleMarkovModel(4, smoothing=0.01, persistence=0.0)
        model.fit(up_down)
        dist = model.predict_distribution([2])
        # From state 2 the first-order chain is genuinely ambiguous.
        assert 0.3 < dist[1] < 0.7
        assert 0.3 < dist[3] < 0.7

    def test_trend_extrapolation_over_steps(self):
        ramp = list(range(8)) + [7, 7]
        model = TwoDependentMarkovModel(8, smoothing=0.01, persistence=0.5)
        for _ in range(20):
            model.update(ramp)
        # Conditioned on a rising pair near the bottom, a multi-step
        # prediction should land well above the current state.
        assert model.predict_state([1, 2], steps=4) >= 5

    def test_persistence_for_unseen_pairs(self):
        model = TwoDependentMarkovModel(6, persistence=3.0)
        model.fit([0, 1, 0, 1])
        assert model.predict_state([5, 4]) == 4


class TestDistributionProperties:
    state_seqs = st.lists(st.integers(min_value=0, max_value=4),
                          min_size=3, max_size=60)

    @settings(max_examples=30)
    @given(state_seqs, st.integers(min_value=1, max_value=8))
    def test_simple_distribution_is_stochastic(self, seq, steps):
        model = SimpleMarkovModel(5).fit(seq)
        dist = model.predict_distribution([seq[-1]], steps=steps)
        assert dist.shape == (5,)
        assert dist.min() >= 0.0
        assert dist.sum() == pytest.approx(1.0)

    @settings(max_examples=30)
    @given(state_seqs, st.integers(min_value=1, max_value=8))
    def test_two_dep_distribution_is_stochastic(self, seq, steps):
        model = TwoDependentMarkovModel(5).fit(seq)
        dist = model.predict_distribution(seq[-2:], steps=steps)
        assert dist.shape == (5,)
        assert dist.min() >= -1e-12
        assert dist.sum() == pytest.approx(1.0)

    @settings(max_examples=30)
    @given(state_seqs)
    def test_transition_matrix_rows_sum_to_one(self, seq):
        for model in (SimpleMarkovModel(5).fit(seq),
                      TwoDependentMarkovModel(5).fit(seq)):
            matrix = model.transition_matrix()
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0)
            assert (matrix >= 0.0).all()

    @settings(max_examples=20)
    @given(state_seqs)
    def test_predict_state_in_range(self, seq):
        model = TwoDependentMarkovModel(5).fit(seq)
        state = model.predict_state(seq[-2:], steps=6)
        assert 0 <= state <= 4

    def test_two_dep_one_step_matches_row(self):
        """One-step prediction must equal the conditioning row of the
        transition matrix exactly."""
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 4, 200)
        model = TwoDependentMarkovModel(4).fit(seq)
        matrix = model.transition_matrix()
        row = model.encode(seq[-2], seq[-1])
        np.testing.assert_allclose(
            model.predict_distribution(seq[-2:], steps=1), matrix[row]
        )


N_STATES = 6


class TestIndependentSegments:
    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    def test_update_starts_an_independent_segment(self, cls):
        # update() must NOT stitch across the boundary: the two
        # segments are separate observation streams.
        a = [0, 1, 2, 3, 2, 1, 0, 1]
        b = [5, 4, 3, 2, 1, 0, 1, 2]
        split = cls(N_STATES).fit(a).update(b)
        joined = cls(N_STATES).fit(a + b)
        assert not np.array_equal(split._counts, joined._counts)
        np.testing.assert_array_equal(
            split._counts,
            cls(N_STATES).fit(a)._counts + cls(N_STATES).fit(b)._counts,
        )


def assert_chains_bitwise_equal(a, b):
    assert a._counts.tobytes() == b._counts.tobytes()
    assert a._trained == b._trained
    if a._trained:
        assert a.transition_matrix().tobytes() == b.transition_matrix().tobytes()


class TestRefit:
    """``fit`` starts from zero counts, whatever the chain saw before."""

    sequences = st.lists(st.integers(0, N_STATES - 1), min_size=0, max_size=40)

    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    @given(first=sequences, extra=sequences, second=sequences)
    @settings(max_examples=60, deadline=None)
    def test_refit_is_a_fresh_fit(self, cls, first, extra, second):
        refit = cls(N_STATES).fit(first).update(extra)
        if refit._trained:
            refit.transition_matrix()  # populate the cache
        refit.fit(second)
        assert_chains_bitwise_equal(refit, cls(N_STATES).fit(second))

    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    def test_refit_on_too_short_sequence_untrains(self, cls):
        model = cls(N_STATES).fit([0, 1, 2, 3, 2, 1, 0, 1])
        model.fit([3] * model.history_needed)
        assert not model._trained
        assert not model._counts.any()
        with pytest.raises(RuntimeError):
            model.predict_distribution([1] * model.history_needed)

    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    def test_refit_bumps_version_and_drops_cached_matrix(self, cls):
        model = cls(N_STATES).fit([0, 1, 2, 3, 2, 1, 0, 1])
        before, version = model.transition_matrix(), model._version
        model.fit([5, 4, 3, 2, 1, 0, 1, 2])
        assert model._version > version
        after = model.transition_matrix()
        assert after is not before
        assert not np.array_equal(after, before)
        fresh = cls(N_STATES).fit([5, 4, 3, 2, 1, 0, 1, 2])
        assert after.tobytes() == fresh.transition_matrix().tobytes()

    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    def test_restored_chain_refits_like_a_fresh_one(self, cls):
        trained = cls(N_STATES).fit([0, 1, 2, 3, 2, 1, 0, 1, 2])
        restored = cls.from_dict(trained.to_dict())
        restored.fit([5, 4, 3, 3, 2, 1, 1, 0])
        assert_chains_bitwise_equal(
            restored, cls(N_STATES).fit([5, 4, 3, 3, 2, 1, 1, 0])
        )


class TestMarkovTrainedFlagRegression:
    """update()/fit() on too-short sequences must not mark trained."""

    @pytest.mark.parametrize(
        "cls,too_short",
        [
            (SimpleMarkovModel, []),
            (SimpleMarkovModel, [3]),
            (TwoDependentMarkovModel, []),
            (TwoDependentMarkovModel, [3]),
            (TwoDependentMarkovModel, [3, 4]),
        ],
    )
    def test_no_transitions_leaves_model_untrained(self, cls, too_short):
        model = cls(N_STATES)
        model.update(too_short)
        assert not model._trained
        with pytest.raises(RuntimeError):
            model.predict_distribution([1] * model.history_needed)
        model.fit(too_short)
        assert not model._trained

    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    def test_short_segments_still_accumulate_later(self, cls):
        model = cls(N_STATES)
        model.update([2])  # no transition yet
        model.update([0, 1, 2, 3, 2, 1])
        assert model._trained
        ref = cls(N_STATES).fit([0, 1, 2, 3, 2, 1])
        np.testing.assert_array_equal(model._counts, ref._counts)


class TestCorruptSnapshotRejection:
    @pytest.mark.parametrize(
        "cls", [SimpleMarkovModel, TwoDependentMarkovModel]
    )
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -1.0])
    def test_markov_rejects_bad_count_values(self, cls, poison):
        model = cls(N_STATES).fit([0, 1, 2, 3, 2, 1, 0, 1, 2])
        blob = model.to_dict()
        counts = unpack_array(blob["counts"], "<f8")
        counts[0, 0] = poison
        blob["counts"] = pack_array(counts)
        with pytest.raises(ValueError, match="corrupt Markov snapshot"):
            cls.from_dict(blob)
