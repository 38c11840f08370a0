from typing import NamedTuple

import numpy as np
import pytest

from ralp import toy
from ralp.alp import ScipyBackend, grid_plan, nu_sample_set, prepare_plan
from ralp.mdp import split_rng

TOY_STATES = np.linspace(0.0, 1.0, 1001)[:, None]
TOY_ACTIONS = np.linspace(0.0, 1.0, 101)[:, None]


class ToyBinShares(NamedTuple):
    total: float  # share of the whole discounted occupancy in the action's bin
    visits: float  # the same share among visits only (chi layer excluded)
    other: float  # expected share of the whole occupancy in any other bin


def toy_constant_action_shares(bins: int, horizon: int) -> ToyBinShares:
    """Closed-form bin shares of the toy MDP's discounted state occupancy.

    Under a constant action ``a`` (interior to its bin) and uniform chi,
    ``estimate_visit_frequency`` measures chi (weight 1) plus the visit at
    step k = 1..H with weight gamma^k.  With bin width w = 1/bins, stay
    probability p and S = sum gamma^k, Sp = sum (gamma p)^k over k = 1..H:

    - the chi layer holds 1 unit of mass, w of it in any one bin;
    - the visit at step k sits at ``a`` with probability 1 - p^k (some jump
      has happened); otherwise it is still at s0, which lies in a given bin
      with probability w.

    Hence the action's bin holds w + S - (1 - w) Sp of the total 1 + S, and
    S - (1 - w) Sp of the visit mass S; every other bin holds
    w (1 + Sp).  At gamma = 0.9, p = 0.1, 100 bins and H = 200 the shares
    are 0.891209 (total), 0.989121 (visits only) and 0.001099 (other bin).
    """
    k = np.arange(1, horizon + 1)
    s = float(np.sum(toy.GAMMA**k))
    sp = float(np.sum((toy.GAMMA * toy.STAY_PROB) ** k))
    w = 1.0 / bins
    return ToyBinShares(
        total=(w + s - (1.0 - w) * sp) / (1.0 + s),
        visits=1.0 - (1.0 - w) * sp / s,
        other=w * (1.0 + sp) / (1.0 + s),
    )


def toy_constant_policy_cost(a_star: float) -> float:
    """Exact uniform-start cost of always playing ``a_star`` on the toy MDP.

    From the two-point transition recursion: the cost-to-go at the action's
    fixed point is |a*-0.5|/(1-gamma); averaging the one-step recursion over
    the uniform start gives (1/4 + 0.9 gamma |a*-0.5|/(1-gamma)) / (1-0.1 gamma).
    """
    if not 0.0 <= a_star <= 1.0:
        raise ValueError(f"action {a_star} outside [0,1]")
    dev = abs(a_star - toy.TARGET)
    return (0.25 + (1.0 - toy.STAY_PROB) * toy.GAMMA * dev / (1.0 - toy.GAMMA)) / (1.0 - toy.STAY_PROB * toy.GAMMA)


@pytest.fixture(scope="session")
def toy_mdp():
    return toy.build_toy()


@pytest.fixture(scope="session")
def toy_grid_prepared(toy_mdp):
    # 1001 x 101 dense grid, prepared once for the whole session
    return prepare_plan(toy_mdp, grid_plan(TOY_STATES, TOY_ACTIONS))


@pytest.fixture(scope="session")
def toy_nu_samples(toy_mdp):
    return nu_sample_set(toy_mdp.state_relevance, 10_000, split_rng(0, 22))


@pytest.fixture(scope="session")
def backend():
    return ScipyBackend()
