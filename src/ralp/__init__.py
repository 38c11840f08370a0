"""Approximate linear programming for MDPs with randomly sampled basis functions.

The package builds value function approximations (VFAs) for discounted-cost
MDPs and average-cost semi-MDPs by solving sampled approximate linear
programs whose features are random Fourier or random stump bases, optionally
refined with self-guiding constraints, and reports control policies together
with valid lower bounds on the optimal cost.
"""

from ralp import alp, bases, gjr, loop, lower_bound, mdp, policy, toy

__all__ = [
    "alp",
    "bases",
    "gjr",
    "loop",
    "lower_bound",
    "mdp",
    "pic",
    "policy",
    "toy",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # pic alone imports the top-level scipy package (about 9 ms, through
    # scipy.special's ufuncs), which toy and gjr runs should not pay, so it
    # is imported on first use
    if name == "pic":
        import ralp.pic

        return ralp.pic
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
