"""Valid lower bounds for constraint-sampled models via a saddle-point estimate.

Sampled approximate linear programs can violate Bellman constraints off the
sample, so their objective is not a trustworthy lower bound.  The repair uses

    y(s, a) = E_chi[V] + (c(s,a) + gamma E[V(s')|s,a] - V(s)) / (1 - gamma),

whose minimum over state-action pairs detects the worst violation.  For any
lambda in (0,1], the optimal policy cost is at least

    E_Y[y(s,a)] + lambda * (Lambda + d ln lambda),

where Y has density proportional to exp(-y/lambda).  E_Y[y] is estimated with
seeded Metropolis-Hastings chains over the state-action box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ralp.alp import VfaWeights, padded_rows, vfa_values
from ralp.bases import BasisSet
from ralp.mdp import (
    DiscountedMdp,
    batch_expected_costs,
    expected_successor_phases,
    split_rng,
)

_CHAIN_STREAM = 211
_BLOCK = 32  # speculative steps per chain and round; 16 measured as fast, 64 slower


@dataclass(frozen=True)
class SaddleConfig:
    chains: int = 8
    chain_length: int = 1500
    burn_in: int = 1000
    lam: Optional[float] = None  # None selects 1 / (|Lambda| + d)
    proposal_frac: float = 0.05  # random-walk step as a fraction of each box width
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.chain_length:
            raise ValueError("need 0 <= burn_in < chain_length")
        if self.lam is not None and not 0.0 < self.lam <= 1.0:
            raise ValueError("lambda must be in (0, 1]")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if not (math.isfinite(self.proposal_frac) and self.proposal_frac > 0.0):
            raise ValueError("proposal_frac must be finite and > 0")


@dataclass(frozen=True)
class LipschitzConstants:
    l_c: float
    l_y: float
    big_lambda: float
    d_sa: int
    radius: float
    diameter: float

    def __post_init__(self):
        for f in ("l_c", "l_y", "big_lambda", "radius", "diameter"):
            if not math.isfinite(getattr(self, f)):
                raise ValueError(f"{f} must be finite")

    def default_lam(self) -> float:
        """1 / (|Lambda| + d), clipped into (0, 1].

        The Lipschitz penalty makes Lambda large and negative on the inventory
        instances, so the magnitude is what produces a usable lambda; any
        value in (0, 1] keeps the bound valid.
        """
        return min(1.0, 1.0 / (abs(self.big_lambda) + self.d_sa))


@dataclass(frozen=True)
class LowerBoundEstimate:
    bound: float
    stderr: float
    mean_y: float
    correction: float
    lam: float
    acceptance_rates: tuple[float, ...]


def _bellman_terms(mdp, bases, w):
    """``terms(states, actions) -> (V(s), E[V(s') | s, a])``, each (m,), on a kernel built once."""
    expect = expected_successor_phases(mdp, bases)
    return lambda states, actions: (
        vfa_values(bases, w, states),
        w.beta0 + expect(states, actions).real @ w.betas,
    )


def _y_batch(mdp, terms, states, actions, e_chi) -> np.ndarray:
    costs = batch_expected_costs(mdp, states, actions)
    v_here, cont = terms(states, actions)
    return e_chi + (costs + mdp.gamma * cont - v_here) / (1.0 - mdp.gamma)


def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    width = hi - lo
    y = np.mod(x - lo, 2.0 * width)
    return lo + (width - np.abs(y - width))


def estimate_lower_bound(
    mdp: DiscountedMdp,
    bases: BasisSet,
    w: VfaWeights,
    cfg: SaddleConfig,
    consts: LipschitzConstants,
    e_chi: float,
) -> LowerBoundEstimate:
    """MH estimate of E_Y[y] plus the analytic correction term.

    ``e_chi`` is E_chi[V] of the weights ``w``, as ``alp.lb_expectation``
    computes it.

    Chains start at independent uniform draws over the state-action box and
    move by componentwise Gaussian steps reflected at the boundaries.  The
    standard error is computed across chain means.

    Each chain draws its start point and then, step by step, its Gaussian
    noise and its uniform up front; no draw depends on an accept decision.
    A rejected proposal leaves the chain where it was, so the chains are
    evaluated in speculative blocks: every round proposes the next
    ``_BLOCK`` steps of each unfinished chain from its current point,
    evaluates all proposals in one batch, and advances each chain to its
    first accepted step (or over its whole block).  For chain counts that
    are multiples of 4 the result equals a step-by-step evaluation bit for
    bit; otherwise it differs in the last bit (see ``padded_rows``).
    """
    lam = cfg.lam if cfg.lam is not None else consts.default_lam()
    lo = np.concatenate([mdp.state_lo, mdp.action_lo])
    hi = np.concatenate([mdp.state_hi, mdp.action_hi])
    step = cfg.proposal_frac * (hi - lo)
    d = len(lo)
    ds = mdp.dim_state
    chains, length = cfg.chains, cfg.chain_length
    terms = _bellman_terms(mdp, bases, w)

    def evaluate(points):
        points = padded_rows(points)
        return _y_batch(mdp, terms, points[:, :ds], points[:, ds:], e_chi)

    x = np.empty((chains, d))
    noise = np.empty((chains, length, d))
    uniforms = np.empty((chains, length))
    for c in range(chains):
        rng = split_rng(cfg.seed, _CHAIN_STREAM, c)
        x[c] = lo + (hi - lo) * rng.random(d)
        for t in range(length):
            noise[c, t] = rng.normal(0.0, 1.0, d)
            uniforms[c, t] = rng.random()
    thresholds = np.log(uniforms) * lam
    y = evaluate(x)[:chains]

    ys = np.empty((chains, length))  # each chain's y after every step
    accepts = np.zeros(chains, dtype=int)
    pos = np.zeros(chains, dtype=int)
    while (active := np.flatnonzero(pos < length)).size:
        blocks = [(c, pos[c], min(pos[c] + _BLOCK, length)) for c in active]
        proposals = _reflect(np.concatenate([x[c] + step * noise[c, a:b] for c, a, b in blocks]), lo, hi)
        y_new = evaluate(proposals)
        row = 0
        for c, a, b in blocks:
            hits = np.flatnonzero(thresholds[c, a:b] <= y[c] - y_new[row : row + b - a])
            if hits.size:
                t = a + hits[0]
                ys[c, a:t] = y[c]
                x[c], y[c] = proposals[row + hits[0]], y_new[row + hits[0]]
                ys[c, t] = y[c]
                accepts[c] += 1
                pos[c] = t + 1
            else:
                ys[c, a:b] = y[c]
                pos[c] = b
            row += b - a
    if int(accepts.sum()) == 0:
        raise RuntimeError("every MH proposal was rejected; proposal step is degenerate")
    # summed in step order, as a step-by-step running sum would be
    kept_sums = np.zeros(chains)
    for col in ys[:, cfg.burn_in :].T:
        kept_sums += col
    chain_means = kept_sums / (length - cfg.burn_in)
    mean_y = float(chain_means.mean())
    stderr = float(chain_means.std(ddof=1) / math.sqrt(chains)) if chains > 1 else 0.0
    correction = lam * (consts.big_lambda + consts.d_sa * math.log(lam))
    return LowerBoundEstimate(
        bound=mean_y + correction,
        stderr=stderr,
        mean_y=mean_y,
        correction=correction,
        lam=lam,
        acceptance_rates=tuple(accepts / length),
    )
