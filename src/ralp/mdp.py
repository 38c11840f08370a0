"""Problem-definition contract for discounted-cost MDPs, and the noise expectations.

States and actions are float arrays in instance units.  All model
objects are immutable after construction and safe to share across threads;
anything random takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from ralp.bases import BasisSet


class InfeasiblePairError(ValueError):
    """Raised when a state-action pair violates the instance feasibility rules."""


def as_state(x) -> np.ndarray:
    """Coerce scalars / sequences to a 1-D float state vector."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"state must be 1-D, got shape {arr.shape}")
    return arr


def split_rng(seed: int, *stream: int) -> np.random.Generator:
    """Named PRNG streams: PCG64 seeded by ``SeedSequence(seed, spawn_key=stream)``.

    Every module derives independent streams with a fixed integer stream key,
    so runs are reproducible across platforms and parallel callers never share
    a generator.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


class SortedNoise(NamedTuple):
    """Noise atoms in ascending order with prefix sums.

    ``cum_weights[j]`` and ``cum_moments[j]`` sum ``w`` and ``w * xi`` over
    the ``j`` smallest atoms, so ``searchsorted(values, u, side="right")``
    indexes the mass and first moment of ``{xi <= u}``.
    """

    values: np.ndarray  # (k,)
    weights: np.ndarray  # (k,)
    cum_weights: np.ndarray  # (k + 1,)
    cum_moments: np.ndarray  # (k + 1,)


@dataclass(frozen=True)
class NoiseModel:
    """Exogenous noise: either an exact finite distribution or a fixed SAA set.

    ``probs is None`` marks a fixed sample-average set (equal weights).  The
    same sample set is used in every expectation of a run so that LP rows,
    greedy policies, and rollouts see consistent dynamics.
    """

    values: np.ndarray
    probs: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.probs is not None:
            p = np.asarray(self.probs, dtype=float)
            if len(p) != len(self.values):
                raise ValueError("probs and values length mismatch")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"exact noise probabilities sum to {p.sum()!r}, not 1")
            object.__setattr__(self, "probs", p)
        self.values.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        if self.probs is not None:
            return self.probs
        return np.full(len(self.values), 1.0 / len(self.values))

    @cached_property
    def sorted_atoms(self) -> SortedNoise:
        """The atoms sorted once per noise model, for closed-form expectations."""
        order = np.argsort(self.values, kind="stable")
        values = self.values[order]
        weights = self.weights[order]
        zero = np.zeros(1)
        return SortedNoise(
            values=values,
            weights=weights,
            cum_weights=np.concatenate([zero, np.cumsum(weights)]),
            cum_moments=np.concatenate([zero, np.cumsum(weights * values)]),
        )


@dataclass(frozen=True)
class StateDistribution:
    """The uniform distribution on the box ``[lo, lo + width]``, or a point mass at ``atom``.

    Build one with ``uniform_box`` or ``degenerate``.  For a point mass,
    expectations are evaluated exactly at the atom instead of by sampling.
    """

    lo: np.ndarray
    width: np.ndarray
    atom: Optional[np.ndarray] = None

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.atom is not None:
            return np.array(self.atom)
        return self.lo + self.width * rng.random(len(self.lo))

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` states from the box, the same draws as ``n`` calls of ``sample``."""
        return self.lo + self.width * rng.random((n, len(self.lo)))


def degenerate(state) -> StateDistribution:
    s = as_state(state)
    return StateDistribution(lo=s, width=np.zeros_like(s), atom=s)


def uniform_box(lo, hi) -> StateDistribution:
    lo = np.asarray(lo, dtype=float)
    return StateDistribution(lo=lo, width=np.asarray(hi, dtype=float) - lo)


@dataclass(frozen=True)
class DiscountedMdp:
    """Infinite-horizon discounted-cost MDP on a box state space.

    ``cost(s, a, noise)`` and ``transition(s, a, noise)`` broadcast: states
    ``(..., d_s)``, actions ``(..., d_a)`` and noise ``(...)`` combine under
    numpy broadcasting; cost returns the broadcast shape and transition the
    broadcast shape plus ``(d_s,)``.  Noise is an explicit argument so that
    LP construction and simulation share one code path (and one SAA sample
    set).
    """

    state_lo: np.ndarray
    state_hi: np.ndarray
    action_lo: np.ndarray
    action_hi: np.ndarray
    gamma: float
    cost: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    transition: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    noise: NoiseModel
    # chi, which weights the ALP objective, the expectation bound and the
    # rollout starts alike
    initial_dist: StateDistribution
    # Inverse CDF of the true noise law, elementwise over any array shape, used
    # for realized draws in rollouts: each rollout calls it once, on a
    # (horizon, replications) array of uniforms.  Defaults to the noise
    # model's own (discrete) quantile.
    noise_quantile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # ``greedy_lookahead(noise, bases, w, grid)``, which greedy policies need,
    # takes a Fourier set, its weights and the (g, d_a) action grid and returns
    # ``cont(states)``: E[V(s') | s, a] over the noise atoms for every state
    # row and grid action, (m, g), as enumerating every successor gives it.
    greedy_lookahead: Optional[Callable] = None
    # Optional closed forms over the noise model's atoms, used in place of
    # enumerating every successor.  ``closed_form_costs(noise, states,
    # actions)`` returns E[c(s, a)] per row, (m,).
    # ``closed_form_phases(noise, omega, q)`` prepares a Fourier set's
    # frequencies (N, d_s) and intercepts (N,) once and returns
    # ``expect(states, actions)`` giving E[exp(i (q_j + omega_j . s'))],
    # complex (m, N).  Semantics must match ``transition`` / ``cost``.
    closed_form_costs: Optional[Callable] = None
    closed_form_phases: Optional[Callable] = None
    # ``saddle_constants(weights)`` returns the problem's Lipschitz constants
    # for the saddle-point lower bound of a VFA with those weights.
    saddle_constants: Optional[Callable] = None
    # Default number of points in the greedy lookahead's action grid.
    action_grid: int = 101
    # ``exact_value(states)`` returns the optimal value V*(s), (...) for
    # states (..., d_s), where it is known in closed form.  The runner writes
    # the VFA and visit-frequency curves of a scalar-state problem that sets it.
    exact_value: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        for f in ("state_lo", "state_hi", "action_lo", "action_hi"):
            arr = np.asarray(getattr(self, f), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, f, arr)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"discount factor must be in (0,1), got {self.gamma}")

    @property
    def dim_state(self) -> int:
        return len(self.state_lo)

    @property
    def dim_action(self) -> int:
        return len(self.action_lo)


def noise_from_uniforms(mdp: DiscountedMdp, u: np.ndarray) -> np.ndarray:
    """Map uniforms through the noise quantile (inverse-CDF sampling)."""
    if mdp.noise_quantile is not None:
        return np.asarray(mdp.noise_quantile(u), dtype=float)
    cum = np.cumsum(mdp.noise.weights)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    return mdp.noise.values[idx]


def batch_next_states(mdp: DiscountedMdp, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Successors for every (state, action) row and every noise atom, (m, k, d_s)."""
    return mdp.transition(states[:, None, :], actions[:, None, :], mdp.noise.values[None, :])


def batch_expected_costs(mdp: DiscountedMdp, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """SAA / exact expected immediate cost per (state, action) row, (m,).

    Uses the problem's closed form when it has one, otherwise enumerates the
    noise atoms.
    """
    if mdp.closed_form_costs is not None:
        return mdp.closed_form_costs(mdp.noise, states, actions)
    xi = mdp.noise.values
    c = mdp.cost(states[:, None, :], actions[:, None, :], xi[None, :])
    return np.broadcast_to(c, (len(states), len(xi))) @ mdp.noise.weights


def expected_successor_phases(mdp: DiscountedMdp, bases: BasisSet) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Successor-expectation kernel of a Fourier set.

    Returns ``expect(states, actions)`` giving E[exp(i (q_j + omega_j . s'))
    | s, a] per row and basis, complex (m, N): the real part is E[phi_j(s')],
    the imaginary part the matching sine.  The problem's closed form is used
    when it has one, with its per-basis tables built here, once per call;
    otherwise every successor is enumerated.  Build the kernel once per
    basis set and reuse it across batches.
    """
    if bases.kind != "fourier" and len(bases) > 0:
        raise ValueError("successor expectations are implemented for Fourier sets")
    omega = bases.omega.reshape(len(bases), bases.dim_state)  # (N, d_s) for an empty stump set too
    q = bases.q
    if mdp.closed_form_phases is not None:
        return mdp.closed_form_phases(mdp.noise, omega, q)

    def enumerate_successors(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        nxt = batch_next_states(mdp, states, actions)
        m, k, ds = nxt.shape
        angles = (nxt.reshape(m * k, ds) @ omega.T + q).reshape(m, k, len(q))
        out = np.empty((m, len(q)), dtype=complex)
        out.real = np.einsum("k,nkb->nb", mdp.noise.weights, np.cos(angles))
        out.imag = np.einsum("k,nkb->nb", mdp.noise.weights, np.sin(angles))
        return out

    return enumerate_successors
