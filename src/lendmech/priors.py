"""Belief priors used by Monte Carlo audits and the round simulator.

A prior describes the joint distribution of the full n x m belief profile.
All samplers are driven by a caller-supplied numpy Generator so every run
is reproducible from its seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class UniformIID:
    """Every belief cell independent Uniform(0, 1)."""


@dataclass(frozen=True)
class BetaIID:
    """Every belief cell independent Beta(a, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"BetaIID.{name} must be finite, got {value!r}")
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"Beta parameters must be positive, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class DegenerateAt:
    """Point mass at a fixed belief profile (rows = recommenders)."""

    profile: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for row in self.profile:
            for value in row:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"profile entries must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ProductGrid:
    """Independent uniform draw from a finite support per cell.

    support[i][q] is the tuple of values recommender i's belief on borrower
    q can take. Small supports let tests enumerate the exact distribution.
    """

    support: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self) -> None:
        for row in self.support:
            for cell in row:
                if not cell:
                    raise ValueError("every support cell needs at least one point")
                for value in cell:
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"support values must lie in [0, 1], got {value}")


PriorSpec = Union[UniformIID, BetaIID, DegenerateAt, ProductGrid]


def check_shape(prior: PriorSpec, n: int, m: int) -> None:
    if isinstance(prior, DegenerateAt):
        if len(prior.profile) != n or any(len(row) != m for row in prior.profile):
            raise ValueError(f"degenerate profile shape does not match ({n}, {m})")
    if isinstance(prior, ProductGrid):
        if len(prior.support) != n or any(len(row) != m for row in prior.support):
            raise ValueError(f"product grid shape does not match ({n}, {m})")


def is_degenerate(prior: PriorSpec) -> bool:
    return isinstance(prior, DegenerateAt)


def sample_profiles(
    prior: PriorSpec, n: int, m: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` full belief profiles, shape (count, n, m)."""
    check_shape(prior, n, m)
    if isinstance(prior, UniformIID):
        return rng.random((count, n, m))
    if isinstance(prior, BetaIID):
        return rng.beta(prior.a, prior.b, size=(count, n, m))
    if isinstance(prior, DegenerateAt):
        return np.broadcast_to(np.asarray(prior.profile, dtype=float), (count, n, m)).copy()
    out = np.empty((count, n, m))
    for i in range(n):
        for q in range(m):
            cell = np.asarray(prior.support[i][q], dtype=float)
            out[:, i, q] = cell[rng.integers(0, len(cell), size=count)]
    return out


def sample_others(
    prior: PriorSpec, n: int, m: int, i: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw co-recommender profiles with row i removed, shape (count, n-1, m).

    The values are `np.delete(profiles, i, axis=1)`'s, held item-major: the
    result is a view of one C-contiguous (n-1, m, count) copy, which the
    interim engines read without copying it again. (With m = 1 the
    transposed draw is Fortran-ordered, so `np.delete` keeps that order
    and `np.ascontiguousarray` copies once more.)"""
    if not 0 <= i < n:
        raise ValueError(f"recommender index {i} out of range for n={n}")
    profiles = sample_profiles(prior, n, m, count, rng)
    return np.ascontiguousarray(np.delete(profiles.transpose(1, 2, 0), i, 0)).transpose(2, 0, 1)


def enumerate_others(
    prior: PriorSpec, n: int, m: int, i: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact support of the co-recommender distribution, with probabilities.

    Only finite-support priors (DegenerateAt, ProductGrid) enumerate; this
    is the oracle path used to validate the Monte Carlo estimators.
    Returns (profiles, probs) with profiles of shape (count, n-1, m).
    """
    check_shape(prior, n, m)
    if isinstance(prior, DegenerateAt):
        profile = np.delete(np.asarray(prior.profile, dtype=float), i, axis=0)
        return profile[np.newaxis, :, :], np.ones(1)
    if not isinstance(prior, ProductGrid):
        raise ValueError(f"prior {prior!r} has no finite support to enumerate")
    rows = [prior.support[j] for j in range(n) if j != i]
    cells = [cell for row in rows for cell in row]
    combos = list(itertools.product(*cells))
    profiles = np.asarray(combos, dtype=float).reshape(len(combos), n - 1, m)
    prob = 1.0
    for cell in cells:
        prob /= len(cell)
    return profiles, np.full(len(combos), prob)
