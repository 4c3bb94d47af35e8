import math

import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st

import qgreedy.noise
from qgreedy.noise import (
    NoiseParams,
    apply_noise,
    fit_noise,
    noise_offset,
    required_shots,
)


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(eta=1.0, alpha=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            NoiseParams(eta=-0.1, alpha=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            NoiseParams(eta=0.0, alpha=0.0, sigma=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, field, value):
        # a NaN offset used to reach the solver's candidate scan and crash it
        fields = dict(eta=0.0, alpha=0.0, sigma=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            NoiseParams(**fields)

    def test_negative_seed_rejected(self):
        # rejected even at sigma 0, where no offset is ever drawn
        with pytest.raises(ValueError, match="seed"):
            NoiseParams(eta=0.0, alpha=0.0, sigma=0.0, seed=-1)

    def test_boundary_values_accepted(self):
        NoiseParams(eta=0.0, alpha=-5.0, sigma=0.0)
        NoiseParams(eta=0.999, alpha=0.0, sigma=10.0)


class TestApplyNoise:
    def test_arithmetic(self):
        p = NoiseParams(eta=0.1, alpha=0.2, sigma=0.0)
        got = apply_noise(0.5, 3, p, 0.05)
        assert got == pytest.approx(0.9**3 * 0.5 + 0.2 + 0.05, abs=1e-15)

    def test_identity_at_zero(self):
        p = NoiseParams(eta=0.0, alpha=0.0, sigma=0.0)
        assert apply_noise(0.7, 10, p, 0.0) == 0.7

    def test_domain(self):
        p = NoiseParams(eta=0.0, alpha=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            apply_noise(1.5, 3, p, 0.0)
        with pytest.raises(ValueError):
            apply_noise(0.5, 0, p, 0.0)


class TestRealization:
    """An offset is a pure function of (noise seed, cone key)."""

    def test_offsets_frozen_per_key(self):
        p = NoiseParams(eta=0.0, alpha=0.0, sigma=0.5, seed=1)
        a = noise_offset(p, b"cone-key")
        assert noise_offset(p, b"cone-key") == a
        assert noise_offset(p, b"other") != a

    def test_same_seed_same_table(self):
        a = NoiseParams(eta=0.0, alpha=0.0, sigma=0.5, seed=4)
        b = NoiseParams(eta=0.0, alpha=0.0, sigma=0.5, seed=4)
        assert noise_offset(a, b"k1") == noise_offset(b, b"k1")

    def test_different_seed_differs(self):
        a = NoiseParams(0.0, 0.0, 0.5, seed=1)
        b = NoiseParams(0.0, 0.0, 0.5, seed=2)
        assert noise_offset(a, b"k1") != noise_offset(b, b"k1")

    def test_sigma_zero_never_draws(self, monkeypatch):
        def no_draw(key_data):
            raise AssertionError("sigma 0 hashed a key")

        monkeypatch.setattr(qgreedy.noise, "key_digest", no_draw)
        xi = noise_offset(NoiseParams(eta=0.1, alpha=0.1, sigma=0.0), b"k")
        # +0.0 exactly, so zero-sigma advice adds nothing, not even a sign
        assert xi == 0.0 and math.copysign(1.0, xi) == 1.0

    KEYS = [b"%d" % i for i in range(10_000)]

    def test_offsets_are_normal(self):
        p = NoiseParams(eta=0.0, alpha=0.0, sigma=0.3, seed=7)
        xs = [noise_offset(p, k) for k in self.KEYS]
        # the keys are fixed, so this is deterministic; 1% critical value
        statistic = stats.kstest(xs, stats.norm(0.0, 0.3).cdf).statistic
        assert statistic < stats.kstwo.ppf(0.99, len(xs))

    def test_seeds_uncorrelated(self):
        a = NoiseParams(0.0, 0.0, 1.0, seed=1)
        b = NoiseParams(0.0, 0.0, 1.0, seed=2)
        xa = [noise_offset(a, k) for k in self.KEYS]
        xb = [noise_offset(b, k) for k in self.KEYS]
        assert abs(np.corrcoef(xa, xb)[0, 1]) < 0.05

    def test_extreme_words_finite_and_opposite(self, monkeypatch):
        # 52 bits keep the uniform below 1.0, where inv_cdf would raise
        p = NoiseParams(eta=0.0, alpha=0.0, sigma=0.5)
        xs = []
        for word in (0, 2**64 - 1):
            monkeypatch.setattr(qgreedy.noise, "key_digest", lambda _: word)
            xs.append(noise_offset(p, b"k"))
        lo, hi = xs
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo == pytest.approx(-8.2095 * 0.5, abs=1e-3)
        assert hi == pytest.approx(8.2095 * 0.5, abs=1e-3)


class TestFitNoise:
    def test_noiseless_recovers_zero(self):
        rng = np.random.default_rng(0)
        triples = [
            (x, x, s)
            for x, s in zip(rng.uniform(-1, 1, 50), rng.integers(1, 23, 50))
        ]
        p = fit_noise(triples)
        assert p.eta == pytest.approx(0.0, abs=1e-9)
        assert p.alpha == pytest.approx(0.0, abs=1e-9)
        assert p.sigma == pytest.approx(0.0, abs=1e-9)

    def test_sigma_zero_exact_recovery(self):
        # scan-resolution recovery when there is no residual randomness
        rng = np.random.default_rng(1)
        truth = NoiseParams(eta=0.1, alpha=0.2, sigma=0.0)
        triples = []
        for _ in range(60):
            x = float(rng.uniform(-1, 1))
            s = int(rng.integers(1, 23))
            triples.append((x, apply_noise(x, s, truth, 0.0), s))
        p = fit_noise(triples)
        assert p.eta == pytest.approx(0.1, abs=1e-9)
        assert p.alpha == pytest.approx(0.2, abs=1e-9)
        assert p.sigma == pytest.approx(0.0, abs=1e-9)

    @given(
        eta_steps=st.integers(0, 300),
        alpha=st.floats(-0.3, 0.3, allow_nan=False),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_on_grid_parameters_recovered(self, eta_steps, alpha, seed):
        eta = eta_steps * 1e-3  # on the scan grid
        rng = np.random.default_rng(seed)
        truth = NoiseParams(eta=eta, alpha=alpha, sigma=0.0)
        triples = []
        for _ in range(40):
            x = float(rng.uniform(-1, 1))
            s = int(rng.integers(1, 23))
            triples.append((x, apply_noise(x, s, truth, 0.0), s))
        p = fit_noise(triples)
        assert p.eta == pytest.approx(eta, abs=2e-4)
        assert p.alpha == pytest.approx(alpha, abs=2e-3)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_noise([(0.1, 0.1, 3), (0.2, 0.2, 4)])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_noise([(0.5, 0.4, 3), (0.5, 0.41, 4), (0.5, 0.39, 5)])
        with pytest.raises(ValueError):
            fit_noise([(0.1, 0.1, 4), (0.3, 0.3, 4), (0.5, 0.59, 4)])


class TestRequiredShots:
    def test_frozen_values(self):
        assert required_shots(1000, 0.05, 0.1) == 991
        assert required_shots(1000, 0.01, 0.05) == 4606

    def test_monotonicity(self):
        assert required_shots(1000, 0.01, 0.1) > required_shots(1000, 0.05, 0.1)
        assert required_shots(2000, 0.05, 0.1) > required_shots(1000, 0.05, 0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            required_shots(0, 0.05, 0.1)
        with pytest.raises(ValueError):
            required_shots(10, 1.5, 0.1)
        with pytest.raises(ValueError):
            required_shots(10, 0.05, 0.0)

    @pytest.mark.parametrize("gap", [1e-300, 1e-160])
    def test_gap_without_finite_budget_is_named(self, gap):
        with pytest.raises(ValueError, match="gap must be large enough"):
            required_shots(10, 0.05, gap)

    def test_extreme_n_and_eps_give_finite_budgets(self):
        # n / eps overflows a float here, but the budget does not
        assert required_shots(10, 5e-324, 0.1) == 74_675
        assert required_shots(10**400, 0.05, 0.1) == 92_403

    def test_nan_gap_is_named(self):
        with pytest.raises(ValueError, match="gap"):
            required_shots(10, 0.05, float("nan"))

    @pytest.mark.parametrize("gap", [2.0000001, 3.0, float("inf")])
    def test_gap_above_two_rejected(self, gap):
        # two expectations in [-1, 1] are never more than 2 apart
        with pytest.raises(ValueError, match="gap must be at most 2"):
            required_shots(10, 0.05, gap)

    def test_widest_gap_accepted(self):
        assert required_shots(10, 0.05, 2.0) == 2
