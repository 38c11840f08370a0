"""Random basis functions: samplers and evaluators.

Two universal feature classes are provided.  Fourier bases are cosines of a
random affine map, ``cos(q + w . s)`` with ``q ~ U[-pi, pi]`` and
``w ~ N(0, sigma^-2 I)``; stump bases are signs of a thresholded coordinate,
``sgn(s_q - w)``, smoothed by a piecewise-linear surrogate near the kink so
they can live inside linear programs.

The samplers reproduce a set from its seed, bandwidth and count, and draw
entries sequentially from a single PCG64 stream, so a longer set drawn from
the same seed starts with the same entries bit-for-bit, which
nested-approximation arguments rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# Width of the linear band in the stump surrogate.
DEFAULT_STUMP_EPS = 0.01


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Ordered collection of random basis parameters.

    Entry j is ``phi_j(s; q_j, omega_j)`` with parameters held once, as
    read-only arrays:

    - Fourier: ``cos(q_j + omega_j . s)`` with intercepts ``q`` (N,) in
      [-pi, pi] and frequencies ``omega`` (N, d);
    - stump: the surrogate sign of ``s[q_j - 1] - omega_j`` with 1-based
      coordinate indexes ``q`` (N,) and thresholds ``omega`` (N,) in
      [-sigma_j, sigma_j].

    ``sigma`` (N,) is the bandwidth each entry was sampled with; hand-fixed
    Fourier entries have none and hold NaN.
    """

    kind: str  # "fourier" | "stump"
    q: np.ndarray
    omega: np.ndarray
    sigma: np.ndarray
    dim_state: int

    def __post_init__(self):
        if self.kind not in ("fourier", "stump"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        fourier = self.kind == "fourier"
        q = np.array(self.q, dtype=float if fourier else int)
        sigma = np.array(self.sigma, dtype=float)
        try:
            omega = np.array(self.omega, dtype=float)
        except ValueError as err:  # ragged frequency rows
            raise ValueError(f"every frequency needs dimension {self.dim_state}") from err
        n = len(q)
        shape = (n, self.dim_state) if fourier else (n,)
        if n == 0:
            omega = omega.reshape(shape)
        if q.shape != (n,) or sigma.shape != (n,):
            raise ValueError(f"need one q and one sigma per entry, got shapes {q.shape} and {sigma.shape}")
        if omega.shape != shape:
            raise ValueError(f"omega has shape {omega.shape}, expected {shape}")
        if fourier:
            if not np.all(np.abs(q) <= math.pi + 1e-12):
                raise ValueError(f"intercept outside [-pi, pi] in {q}")
            if not np.isfinite(omega).all():
                raise ValueError("non-finite frequency")
        else:
            if np.any((q < 1) | (q > self.dim_state)):
                raise ValueError(f"coordinate index outside 1..{self.dim_state} in {q}")
            if not np.all(sigma > 0):
                raise ValueError(f"sigma must be positive, got {sigma}")
            if not np.all(np.abs(omega) <= sigma + 1e-12):
                raise ValueError("threshold outside [-sigma, sigma]")
        for name, arr in (("q", q), ("omega", omega), ("sigma", sigma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisSet):
            return NotImplemented
        return (
            (self.kind, self.dim_state) == (other.kind, other.dim_state)
            and np.array_equal(self.q, other.q)
            and np.array_equal(self.omega, other.omega)
            and np.array_equal(self.sigma, other.sigma, equal_nan=True)
        )

    def __getitem__(self, index: slice) -> "BasisSet":
        """The entries selected by a slice, as a set of the same kind and state dimension."""
        return replace(self, q=self.q[index], omega=self.omega[index], sigma=self.sigma[index])

    def prefix(self, count: int) -> "BasisSet":
        """The set restricted to its first ``count`` entries."""
        if count > len(self):
            raise ValueError(f"prefix of {count} from a set of {len(self)}")
        return self[:count]


def sample_fourier(count: int, dim_state: int, sigma_range: Sequence[float], seed: int) -> BasisSet:
    """Sample Fourier bases; sigma is drawn per basis uniformly from the range.

    Per entry the draw order is (sigma, q, omega), all from one stream, so a
    longer set sampled from the same seed starts with the same entries.
    """
    lo, hi = map(float, sigma_range)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 < lo <= hi:
        raise ValueError(f"sigma range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    sigma = np.empty(count)
    q = np.empty(count)
    omega = np.empty((count, dim_state))
    for j in range(count):
        sigma[j] = rng.uniform(lo, hi)
        q[j] = rng.uniform(-math.pi, math.pi)
        omega[j] = rng.normal(0.0, 1.0 / sigma[j], size=dim_state)
    return BasisSet(kind="fourier", q=q, omega=omega, sigma=sigma, dim_state=dim_state)


def sample_stumps(count: int, dim_state: int, sigma: float, seed: int) -> BasisSet:
    """Sample stump bases: coordinate index uniform on {1..d}, threshold on [-sigma, sigma]."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    q = np.empty(count, dtype=int)
    omega = np.empty(count)
    for j in range(count):
        q[j] = rng.integers(1, dim_state + 1)
        omega[j] = rng.uniform(-sigma, sigma)
    return BasisSet(kind="stump", q=q, omega=omega, sigma=np.full(count, float(sigma)), dim_state=dim_state)


def empty_stumps(dim_state: int) -> BasisSet:
    """Zero-entry stump set; the affine bias approximation uses no random bases."""
    return BasisSet(kind="stump", q=(), omega=(), sigma=(), dim_state=dim_state)


def fixed_fourier(omegas: Sequence[Sequence[float]] | Sequence[float], dim_state: int = 1) -> BasisSet:
    """Hand-specified Fourier set with zero intercepts, e.g. cos(theta * s) for scalar states."""
    omega = [np.atleast_1d(np.asarray(w, dtype=float)) for w in omegas]
    for w in omega:
        if len(w) != dim_state:
            raise ValueError(f"frequency dimension {len(w)} != {dim_state}")
    n = len(omega)
    return BasisSet(kind="fourier", q=np.zeros(n), omega=omega, sigma=np.full(n, math.nan), dim_state=dim_state)


def features(basis_set: BasisSet, states: np.ndarray) -> np.ndarray:
    """Feature matrix Phi with Phi[i, j] = basis_j(states[i]); states shape (n, d) or (d,).

    Stumps use the piecewise-linear sign surrogate: x/eps clipped to [-1, 1]
    for x = s_q - omega, with eps = ``DEFAULT_STUMP_EPS``.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.shape[1] != basis_set.dim_state:
        raise ValueError(f"state dimension {states.shape[1]} != {basis_set.dim_state}")
    if basis_set.kind == "fourier":
        return np.cos(states @ basis_set.omega.T + basis_set.q)
    return np.clip((states[:, basis_set.q - 1] - basis_set.omega) / DEFAULT_STUMP_EPS, -1.0, 1.0)
