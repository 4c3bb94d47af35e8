"""Phenomenological advice noise and shot-budget arithmetic.

A hardware estimate of a cone expectation is modeled as

    noisy = (1 - eta)^{cone_size} * ideal + alpha + xi

with a shrink rate eta per involved qubit, a uniform bias alpha, and a
residual offset xi ~ Normal(0, sigma).  xi is a pure function of (noise
seed, canonical cone key) rather than redrawn per evaluation: two alive
vertices whose cones are isomorphic see the same offset, and reruns with
the same seed see the same offsets.  It is drawn from the keyed word of
:func:`~qgreedy.cones.key_digest`, the source shot advice draws from too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .cones import key_digest


@dataclass(frozen=True)
class NoiseParams:
    eta: float
    alpha: float
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def noise_offset(params: NoiseParams, key_data: bytes) -> float:
    """The offset xi of cone key ``key_data``: sigma times the standard
    normal quantile of the top 52 bits of the keyed word, at the midpoint of
    their 2**-52 cell.  52 bits keep the uniform strictly below 1.0, so the
    extreme words map to about +-8.21 sigma; sigma 0 gives +0.0 unhashed."""
    if params.sigma == 0.0:
        return 0.0
    word = key_digest(b"%d:" % params.seed + key_data)
    u = ((word >> 12) + 0.5) / 2**52
    return params.sigma * NormalDist().inv_cdf(u)


def apply_noise(ideal: float, cone_size: int, params: NoiseParams, xi: float) -> float:
    """(1-eta)^cone_size * ideal + alpha + xi; pass xi = noise_offset(params, key)."""
    if not -1.0 <= ideal <= 1.0:
        raise ValueError(f"expectation {ideal} outside [-1, 1]")
    if cone_size < 1:
        raise ValueError("cone_size must be >= 1")
    return (1.0 - params.eta) ** cone_size * ideal + params.alpha + xi


def fit_noise(pairs) -> NoiseParams:
    """Least-squares (eta, alpha) from (ideal, noisy, cone_size) triples.

    1-D scan over eta in [0, 0.5] at step 1e-4 with the closed-form optimal
    alpha at each eta; sigma is the residual standard deviation at the
    winner.  eta is unidentifiable when all ideals or all sizes coincide.
    """
    data = [(float(x), float(y), int(s)) for x, y, s in pairs]
    for x, y, s in data:  # the range apply_noise takes, and a finite noisy
        if not (-1.0 <= x <= 1.0 and math.isfinite(y) and s >= 1):
            raise ValueError(f"triple ({x!r}, {y!r}, {s}) is outside the noise "
                             "model: ideal in [-1, 1], noisy finite, size >= 1")
    if len(data) < 3:
        raise ValueError("need at least 3 (ideal, noisy, cone_size) triples")
    x = np.array([t[0] for t in data])
    y = np.array([t[1] for t in data])
    s = np.array([t[2] for t in data], dtype=np.int64)
    if np.all(x == x[0]) or np.all(s == s[0]):
        raise ValueError("degenerate input: eta is unidentifiable")
    etas = np.arange(0.0, 0.5 + 1e-12, 1e-4)
    # residual sum with alpha optimized out, all etas at once
    shrink = (1.0 - etas[:, None]) ** s[None, :]
    pred = shrink * x[None, :]
    resid = y[None, :] - pred
    alpha = resid.mean(axis=1)
    scores = ((resid - alpha[:, None]) ** 2).sum(axis=1)
    best = int(np.argmin(scores))
    res = resid[best] - alpha[best]
    return NoiseParams(
        eta=float(etas[best]),
        alpha=float(alpha[best]),
        sigma=float(np.std(res)),
    )


def required_shots(n: int, eps: float, gap: float) -> int:
    """ceil(ln(n/eps) / gap^2): Hoeffding shot count so that all n advice
    comparisons stay on the right side of a gap-wide margin with failure
    probability eps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not gap > 0.0:  # NaN too
        raise ValueError("gap must be positive; use the cutoff path for gap 0")
    if not gap <= 2.0:  # two expectations in [-1, 1] are at most 2 apart
        raise ValueError(f"gap must be at most 2, got {gap}")
    # log(n) - log(eps) is finite for any n and eps, unlike n / eps; a tiny
    # gap squares to 0 or to a subnormal, and the budget is then no integer
    budget = (math.log(n) - math.log(eps)) / gap**2 if gap**2 else math.inf
    if math.isinf(budget):
        raise ValueError(f"gap must be large enough for a finite budget, got {gap}")
    return math.ceil(budget)

