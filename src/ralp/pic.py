"""Perishable inventory control: a 3-D discounted MDP with partial backlogging.

The commodity lives two periods and orders arrive with a two-period lead
time, so the state is (s0, s1, p1): net inventory maturing now (negative
values are backlogged demand, floored at ``s_min``), fresh on-hand inventory,
and the in-transit order.  Demand is truncated normal on [0, 10] with mean 5
and standard deviation 2 across the whole catalog; lost sales beyond the
backlog limit cost 100 per unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from ralp.alp import VfaWeights, load_extension
from ralp.bases import BasisSet
from ralp.lower_bound import LipschitzConstants
from ralp.mdp import DiscountedMdp, NoiseModel, degenerate

DEMAND_SAA_SIZE = 5000

# scipy.special's ufuncs, without importing the scipy.special package
_ufuncs = load_extension("scipy.special._ufuncs")

# Catalog rows: (c_o, c_h, c_d, c_b, a_max, s_min, gamma).
_CATALOG = {
    1: (20, 2, 5, 10, 10, -10, 0.95),
    2: (20, 2, 5, 10, 10, -10, 0.99),
    3: (20, 5, 10, 8, 10, -10, 0.95),
    4: (20, 5, 10, 8, 10, -10, 0.99),
    5: (20, 2, 10, 10, 10, -10, 0.95),
    6: (20, 2, 10, 10, 10, -10, 0.99),
    7: (20, 2, 10, 10, 30, -30, 0.95),
    8: (20, 2, 10, 10, 30, -30, 0.99),
    9: (16, 5, 8, 8, 30, -30, 0.95),
    10: (16, 5, 8, 8, 30, -30, 0.99),
    11: (20, 5, 10, 8, 50, -50, 0.95),
    12: (20, 5, 10, 8, 50, -50, 0.99),
    13: (20, 2, 5, 10, 50, -50, 0.95),
    14: (20, 2, 5, 10, 50, -50, 0.99),
    15: (20, 2, 12, 6, 50, -50, 0.95),
    16: (20, 2, 12, 6, 50, -50, 0.99),
}

INITIAL_STATE = (5.0, 5.0, 5.0)


@dataclass(frozen=True)
class PicParams:
    life: int
    lead: int
    c_o: float
    c_h: float
    c_d: float
    c_b: float
    c_l: float
    a_max: float
    s_min: float
    gamma: float
    demand_range: tuple[float, float]
    demand_mean: float
    demand_sd: float

    def __post_init__(self):
        if self.life != 2 or self.lead != 2:
            raise ValueError("only life = lead = 2 is supported")
        if not self.s_min <= 0.0 <= self.a_max:
            raise ValueError("need s_min <= 0 <= a_max")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0,1)")
        if not (self.demand_sd > 0.0 and self.demand_range[0] < self.demand_mean < self.demand_range[1]):
            raise ValueError("need demand_sd > 0 and the demand mean strictly inside demand_range")


def instance_from_table(instance_id: int) -> PicParams:
    """Catalog instance 1..16."""
    if instance_id not in _CATALOG:
        raise ValueError(f"instance id must be 1..16, got {instance_id}")
    c_o, c_h, c_d, c_b, a_max, s_min, gamma = _CATALOG[instance_id]
    return PicParams(
        life=2,
        lead=2,
        c_o=float(c_o),
        c_h=float(c_h),
        c_d=float(c_d),
        c_b=float(c_b),
        c_l=100.0,
        a_max=float(a_max),
        s_min=float(s_min),
        gamma=gamma,
        demand_range=(0.0, 10.0),
        demand_mean=5.0,
        demand_sd=2.0,
    )


def catalog_json() -> str:
    """The full catalog as a JSON document for audit."""
    return json.dumps(
        {str(i): asdict(instance_from_table(i)) for i in sorted(_CATALOG)}, indent=1
    )


def pic_transition(p: PicParams, s, a, demand):
    """Next state (max(s1 - (D - s0)+, s_min), p1, a); broadcasts like ``DiscountedMdp.transition``."""
    shortfall = np.maximum(demand - s[..., 0], 0.0)
    first = np.maximum(s[..., 1] - shortfall, p.s_min)
    b = np.broadcast(first, s[..., 2], a[..., 0])
    out = np.empty(b.shape + (3,))
    out[..., 0] = first
    out[..., 1] = np.broadcast_to(s[..., 2], b.shape)
    out[..., 2] = np.broadcast_to(a[..., 0], b.shape)
    return out


def pic_cost(p: PicParams, s, a, demand):
    """Ordering cost plus holding, disposal, backlog and lost-sales terms per demand draw.

    Ordering is charged at gamma^lead * c_o per unit since payment happens on
    receipt.  Broadcasts like ``DiscountedMdp.cost``.
    """
    shortfall = np.maximum(demand - s[..., 0], 0.0)
    holding = p.c_h * np.maximum(s[..., 1] - shortfall, 0.0)
    disposal = p.c_d * np.maximum(s[..., 0] - demand, 0.0)
    backlog = p.c_b * np.maximum(demand - s[..., 0] - s[..., 1], 0.0)
    lost = p.c_l * np.maximum(p.s_min + demand - s[..., 0] - s[..., 1], 0.0)
    return p.gamma**p.lead * p.c_o * a[..., 0] + holding + disposal + backlog + lost


# Closed-form demand expectations.  The successor (g(xi), s2, a) depends on
# demand only through its first coordinate, which is piecewise affine with
# breakpoints s0 and t = s0 + s1 - s_min:
#     g = s1 for xi <= s0,  s0 + s1 - xi for s0 < xi <= t,  s_min for xi > t,
# so prefix sums over the sorted demand atoms give every expectation exactly.


def _demand_tail(noise: NoiseModel, u: np.ndarray) -> np.ndarray:
    """H(u) = sum over atoms xi > u of w (xi - u), per entry of ``u``."""
    tab = noise.sorted_atoms
    j = np.searchsorted(tab.values, u, side="right")
    return (tab.cum_moments[-1] - tab.cum_moments[j]) - u * (tab.cum_weights[-1] - tab.cum_weights[j])


def pic_expected_costs(p: PicParams, noise: NoiseModel, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """E[c(s, a)] over the demand atoms per row, (m,); matches ``pic_cost``.

    gamma^L c_o a + c_h (s1 - H(s0) + H(s0 + s1)) + c_d (s0 - E xi + H(s0))
    + c_b H(s0 + s1) + c_l H(s0 + s1 - s_min).  The holding term uses
    max(s1 - x, 0) = s1 - x + (x - s1)^+ for x = (xi - s0)^+, which needs
    s1 >= 0; for s1 < 0 holding is zero.
    """
    s0, s1 = states[:, 0], states[:, 1]
    h0 = _demand_tail(noise, s0)
    h01 = _demand_tail(noise, s0 + s1)
    mean = noise.sorted_atoms.cum_moments[-1]
    holding = np.where(s1 >= 0.0, s1 - h0 + h01, 0.0)
    return (
        p.gamma**p.lead * p.c_o * actions[:, 0]
        + p.c_h * holding
        + p.c_d * (s0 - mean + h0)
        + p.c_b * h01
        + p.c_l * _demand_tail(noise, s0 + s1 - p.s_min)
    )


def pic_successor_phases(p: PicParams, noise: NoiseModel, omega: np.ndarray, q: np.ndarray):
    """Prepare E[exp(i (q + omega . s'))] for one Fourier set; see ``DiscountedMdp``.

    With W and P(u) = sum over atoms xi <= u of w exp(-i omega_0 xi) taken
    from prefix sums, the expected phase of the first coordinate is
    W(s0) e^{i omega_0 s1} + e^{i omega_0 (s0 + s1)} (P(t) - P(s0))
    + (1 - W(t)) e^{i omega_0 s_min}.  The table of P is built here, once per
    basis set; each (s, a) row then costs two searches and O(N) work.
    Requires s1 >= s_min (t >= s0), which holds on the state box.
    """
    tab = noise.sorted_atoms
    w0 = omega[:, 0]
    prefix = np.zeros((len(tab.values) + 1, len(q)), dtype=complex)
    prefix[1:] = np.cumsum(tab.weights[:, None] * np.exp(-1j * np.outer(tab.values, w0)), axis=0)
    total = tab.cum_weights[-1]
    floor_phase = np.exp(1j * p.s_min * w0)

    def expect(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        s0, s1, s2 = states[:, 0], states[:, 1], states[:, 2]
        if np.any(s1 < p.s_min):
            raise ValueError("closed-form expectation needs s1 >= s_min")
        j0 = np.searchsorted(tab.values, s0, side="right")
        j1 = np.searchsorted(tab.values, s0 + s1 - p.s_min, side="right")
        first = (
            tab.cum_weights[j0][:, None] * np.exp(1j * np.outer(s1, w0))
            + np.exp(1j * np.outer(s0 + s1, w0)) * (prefix[j1] - prefix[j0])
            + (total - tab.cum_weights[j1])[:, None] * floor_phase
        )
        rest = np.exp(1j * (q + np.outer(s2, omega[:, 1]) + np.outer(actions[:, 0], omega[:, 2])))
        return rest * first

    return expect


def pic_greedy_lookahead(p: PicParams, noise: NoiseModel, bases: BasisSet, w: VfaWeights, grid: np.ndarray):
    """Prepare E[V(s') | s, a] over a scalar action grid; see ``DiscountedMdp``.

    The successor's last coordinate is the action and the others do not
    depend on it, so every grid action follows by angle addition from the
    successor kernel at the lowest one.  The kernel and the grid's
    trigonometric factors are prepared here, once per basis set.
    """
    if bases.kind != "fourier" and len(bases) > 0:
        raise ValueError("the greedy lookahead is implemented for Fourier sets")
    omega = bases.omega.reshape(len(bases), 3)  # (N, 3) for an empty stump set too
    expect = pic_successor_phases(p, noise, omega, bases.q)
    w_slot = omega[:, 2]
    a_lo = grid[0, 0]
    shift = np.exp(-1j * w_slot * a_lo)  # removes the lowest action's angle
    v = np.outer(grid[:, 0], w_slot)  # (g, N)
    cos_rows = (np.cos(v) * w.betas).T
    sin_rows = (np.sin(v) * w.betas).T

    def cont(states: np.ndarray) -> np.ndarray:
        z = expect(states, np.full((len(states), 1), a_lo)) * shift  # (m, N)
        return w.beta0 + z.real @ cos_rows - z.imag @ sin_rows  # (m, g)

    return cont


def demand_quantile(p: PicParams, u) -> np.ndarray:
    """Inverse CDF of the truncated-normal demand law, elementwise over ``u`` in [0, 1).

    Repeats scipy's ``truncnorm.ppf`` operation for operation, so it returns
    the same bits.  The lower end lies below the mean (checked by
    ``PicParams``), so only truncnorm's left-tail branch applies:
    Phi(x) = Phi(a) + u (Phi(b) - Phi(a)) is formed in log space and inverted
    by ``ndtri_exp``.  u = 0 returns the lower end of the range.  The
    two-term ``logsumexp`` is written out as the arithmetic scipy performs
    on two terms, log1p(exp(lo - hi)) + hi, with the same numpy ufuncs.
    """
    a = (p.demand_range[0] - p.demand_mean) / p.demand_sd
    b = (p.demand_range[1] - p.demand_mean) / p.demand_sd
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    log_mass = _ufuncs.log1p(-_ufuncs.ndtr(a) - _ufuncs.ndtr(-b))
    log_a, log_mid = _ufuncs.log_ndtr(a), log_u + log_mass
    hi, lo = np.maximum(log_a, log_mid), np.minimum(log_a, log_mid)
    log_phi = np.log1p(np.exp(lo - hi)) + hi
    x = _ufuncs.ndtri_exp(log_phi) * p.demand_sd + p.demand_mean
    return np.where(u == 0.0, a * p.demand_sd + p.demand_mean, x)


def sample_demand(p: PicParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Inverse-CDF draws from the truncated normal, reproducible from the rng."""
    return demand_quantile(p, rng.random(n))


# State-action dimension of the saddle bound: three state coordinates, one action.
D_SA_PIC = 4


def pic_constants(p: PicParams, w: VfaWeights) -> LipschitzConstants:
    """Saddle-bound constants for an inventory instance and VFA weights.

    l_c applies the printed formula 2(gamma^L c_o a + c_h a + c_b s_min
    + c_d a + c_l a) verbatim; note the backlog term enters with the sign of
    s_min (which is non-positive), shrinking the constant.
    """
    a, s_min = p.a_max, p.s_min
    l_c = 2.0 * (p.gamma**p.lead * p.c_o * a + p.c_h * a + p.c_b * s_min + p.c_d * a + p.c_l * a)
    beta_l1 = abs(w.beta0) + float(np.abs(w.betas).sum())
    l_y = (4.0 * beta_l1 + l_c) / (1.0 - p.gamma)
    radius = a / 2.0
    diameter = 3.0 * a**2 + (s_min - a) ** 2
    volume = (a - s_min) * a * a * a  # state box x action box
    big_lambda = (
        -math.log(math.gamma(1.0 + D_SA_PIC / 2.0) * (radius * math.sqrt(math.pi)) ** -D_SA_PIC * volume)
        - l_y * (radius + diameter)
    )
    return LipschitzConstants(
        l_c=l_c,
        l_y=l_y,
        big_lambda=big_lambda,
        d_sa=D_SA_PIC,
        radius=radius,
        diameter=diameter,
    )


def build_pic_mdp(p: PicParams, demand_saa_size: int = DEMAND_SAA_SIZE, demand_seed: int = 0) -> DiscountedMdp:
    """Assemble the MDP with a fixed demand SAA set shared by every expectation."""
    if demand_saa_size < 1:
        raise ValueError(f"demand_saa_size must be >= 1, got {demand_saa_size}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((demand_seed, 7))))
    demand_set = sample_demand(p, rng, demand_saa_size)
    chi = degenerate(INITIAL_STATE)
    return DiscountedMdp(
        state_lo=np.array([p.s_min, 0.0, 0.0]),
        state_hi=np.array([p.a_max, p.a_max, p.a_max]),
        action_lo=np.array([0.0]),
        action_hi=np.array([p.a_max]),
        gamma=p.gamma,
        cost=partial(pic_cost, p),
        transition=partial(pic_transition, p),
        noise=NoiseModel(values=demand_set),
        initial_dist=chi,
        state_relevance=chi,
        closed_form_costs=partial(pic_expected_costs, p),
        closed_form_phases=partial(pic_successor_phases, p),
        noise_quantile=partial(demand_quantile, p),
        greedy_lookahead=partial(pic_greedy_lookahead, p),
        saddle_constants=partial(pic_constants, p),
        action_grid=int(round(p.a_max)) + 1,
    )
