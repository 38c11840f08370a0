import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ralp.bases import (
    BasisSet,
    empty_stumps,
    features,
    fixed_fourier,
    sample_fourier,
    sample_stumps,
)


def _fourier(q, omega, sigma=math.nan):
    """One hand-built Fourier entry cos(q + omega . s)."""
    return BasisSet(kind="fourier", q=[q], omega=[omega], sigma=[sigma], dim_state=len(omega))


def _stump(q_index, omega, sigma, dim_state=1):
    """One hand-built stump entry on coordinate ``q_index`` (1-based)."""
    return BasisSet(kind="stump", q=[q_index], omega=[omega], sigma=[sigma], dim_state=dim_state)


class TestSampling:
    def test_same_seed_identical(self):
        a = sample_fourier(10, 3, (1.0, 5.0), seed=9)
        b = sample_fourier(10, 3, (1.0, 5.0), seed=9)
        assert a == b

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_fourier(0, 2, (1.0, 2.0), seed=0)
        with pytest.raises(ValueError):
            sample_stumps(0, 2, 1.0, seed=0)

    def test_bad_sigma_range_rejected(self):
        with pytest.raises(ValueError):
            sample_fourier(3, 2, (0.0, 2.0), seed=0)
        with pytest.raises(ValueError):
            sample_fourier(3, 2, (3.0, 2.0), seed=0)

    def test_nested_extension_preserves_prefix(self):
        # a longer set drawn from the same seed starts with the same entries
        base = sample_fourier(6, 2, (0.5, 2.0), seed=4)
        longer = sample_fourier(11, 2, (0.5, 2.0), seed=4)
        assert len(longer) == 11
        assert longer.prefix(6) == base
        stumps = sample_stumps(4, 3, 2.5, seed=4)
        assert sample_stumps(7, 3, 2.5, seed=4).prefix(4) == stumps

    def test_sampler_moments(self):
        # empirical mean |omega| against the closed form for sigma ~ U[100, 1000]:
        # E|w| = sqrt(2/pi) * ln(hi/lo) / (hi - lo)
        lo, hi = 100.0, 1000.0
        bs = sample_fourier(10_000, 3, (lo, hi), seed=13)
        omegas = bs.omega.ravel()
        expected = math.sqrt(2.0 / math.pi) * math.log(hi / lo) / (hi - lo)
        var = 1.0 / (lo * hi) - expected**2
        se = math.sqrt(var / omegas.size)
        assert abs(np.mean(np.abs(omegas)) - expected) < 3.0 * se

    def test_sigma_recorded_within_range(self):
        bs = sample_fourier(50, 1, (2.0, 4.0), seed=1)
        assert np.all((2.0 <= bs.sigma) & (bs.sigma <= 4.0))

    def test_stump_fields(self):
        bs = sample_stumps(50, 4, 3.0, seed=2)
        assert bs.q.dtype.kind == "i"  # 1-based coordinate indexes
        assert np.all((1 <= bs.q) & (bs.q <= 4))
        assert np.all((-3.0 <= bs.omega) & (bs.omega <= 3.0))


class TestEvaluation:
    def test_fourier_trivials(self):
        assert features(_fourier(0.0, [0.0], 1.0), [0.3])[0, 0] == 1.0
        assert abs(features(_fourier(math.pi / 2, [0.0], 1.0), [0.3])[0, 0]) < 1e-12
        # literal scalar form cos(theta * s) at s = 0
        assert features(_fourier(0.0, [2.0]), [0.0])[0, 0] == 1.0

    def test_fourier_dim_mismatch(self):
        with pytest.raises(ValueError):
            features(_fourier(0.0, [1.0, 2.0], 1.0), [0.3])

    def test_fourier_bounded(self):
        bs = sample_fourier(20, 2, (0.5, 2.0), seed=3)
        pts = np.random.default_rng(0).random((100, 2))
        phi = features(bs, pts)
        assert np.all(phi >= -1.0) and np.all(phi <= 1.0)

    def test_stump_surrogate_values(self):
        b = _stump(q_index=1, omega=0.0, sigma=1.0)
        assert features(b, [0.5])[0, 0] == 1.0
        assert features(b, [0.0])[0, 0] == 0.0
        assert features(b, [0.005])[0, 0] == 0.5
        assert features(b, [-0.5])[0, 0] == -1.0

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_stump_matches_sign_outside_band(self, x):
        b = _stump(q_index=1, omega=0.0, sigma=5.0)
        if abs(x) > 0.01:
            assert features(b, [x])[0, 0] == np.sign(x)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_fourier_unit_lipschitz_in_angle(self, x, y):
        phi = features(_fourier(0.3, [2.0], 1.0), [[x], [y]])[:, 0]
        lhs = abs(phi[0] - phi[1])
        assert lhs <= 2.0 * abs(x - y) + 1e-12  # |cos u - cos v| <= |u - v|, u - v = 2(x-y)

    def test_stump_selects_its_coordinate(self):
        # the second coordinate, 1-based, against threshold 0.5
        phi = features(_stump(q_index=2, omega=0.5, sigma=1.0, dim_state=3), [[9.0, 0.505, -9.0]])
        assert phi[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_fixed_fourier_matches_scalar_form(self):
        bs = fixed_fourier([2.0, -5.0])
        s = np.array([[0.25]])
        phi = features(bs, s)
        assert phi[0, 0] == pytest.approx(math.cos(0.5), abs=1e-15)
        assert phi[0, 1] == pytest.approx(math.cos(-1.25), abs=1e-15)

    def test_empty_set_features(self):
        phi = features(empty_stumps(2), np.zeros((3, 2)))
        assert phi.shape == (3, 0)


class TestValidation:
    def test_intercept_outside_pi_rejected(self):
        with pytest.raises(ValueError, match="intercept"):
            _fourier(3.2, [1.0])
        assert len(_fourier(-math.pi, [1.0])) == 1

    def test_non_finite_frequency_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite"):
                _fourier(0.0, [bad])

    def test_stump_entry_checks(self):
        with pytest.raises(ValueError, match="coordinate index"):
            _stump(0, 0.0, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            _stump(1, 0.0, 0.0)
        with pytest.raises(ValueError, match="threshold"):
            _stump(1, 1.5, 1.0)
        assert len(_stump(1, -1.0, 1.0)) == 1

    def test_stump_index_beyond_state_dimension_rejected(self):
        bs = sample_stumps(3, 2, 2.0, seed=22)
        q = bs.q.copy()
        q[1] = 3
        with pytest.raises(ValueError, match="coordinate index"):
            BasisSet(kind="stump", q=q, omega=bs.omega, sigma=bs.sigma, dim_state=2)

    def test_frequency_of_wrong_length_rejected(self):
        bs = sample_fourier(3, 2, (1.0, 3.0), seed=21)
        fields = dict(kind="fourier", q=bs.q, sigma=bs.sigma, dim_state=2)
        omega = [list(w) for w in bs.omega]
        omega[1] = [0.5]
        with pytest.raises(ValueError, match="dimension 2"):
            BasisSet(omega=omega, **fields)
        with pytest.raises(ValueError, match="omega has shape"):
            BasisSet(omega=[[0.5, 0.1, 0.2]] * 3, **fields)

    def test_parameters_read_only(self):
        bs = sample_fourier(3, 2, (1.0, 3.0), seed=21)
        with pytest.raises(ValueError):
            bs.omega[0, 0] = 1.0

    def test_slices_keep_provenance(self):
        bs = sample_fourier(5, 2, (1.0, 3.0), seed=21)
        tail = bs[2:]
        assert len(tail) == 3 and (tail.kind, tail.dim_state) == ("fourier", 2)
        assert np.array_equal(tail.omega, bs.omega[2:])
        with pytest.raises(ValueError):
            bs.prefix(6)
