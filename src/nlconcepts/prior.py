"""Priors over natural-language hypotheses.

Three kinds: uniform, tuned log-linear over text features, and external
(precomputed log-scores, e.g. from an LM scoring pass). The features
are a deterministic hashed bag-of-tokens (words + word bigrams, signed
hashing, L2-normalized).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .types import Hypothesis, canonicalize_nl

FEATURE_DIM = 384

# Fixed, published hashing seed. Changing it invalidates any saved theta.
HASH_SEED = 20240613


class MissingFeature(KeyError):
    """An external score file lacks an entry for a hypothesis."""


def _hash_token(token: str, seed: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode()
    ).digest()
    return int.from_bytes(digest, "little")


def extract_features(
    nl_text: str, dim: int = FEATURE_DIM, seed: int = HASH_SEED
) -> np.ndarray:
    """Deterministic hashed bag-of-tokens features, L2-normalized."""
    words = canonicalize_nl(nl_text).split()
    tokens = list(words) + [f"{a}__{b}" for a, b in zip(words, words[1:])]
    vec = np.zeros(dim)
    for token in tokens:
        h = _hash_token(token, seed)
        bucket = (h >> 1) % dim
        sign = 1.0 if h & 1 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class FeatureExtractor:
    """Caching front-end over the hashed features."""

    def __init__(self, dim: int = FEATURE_DIM, seed: int = HASH_SEED):
        self.dim = dim
        self.seed = seed
        self._cache: Dict[str, np.ndarray] = {}

    def __call__(self, nl_text: str) -> np.ndarray:
        key = canonicalize_nl(nl_text)
        if key not in self._cache:
            self._cache[key] = extract_features(key, self.dim, self.seed)
        return self._cache[key]

    def matrix(self, hypotheses) -> np.ndarray:
        """Stacked feature matrix, one row per hypothesis."""
        return np.stack([self(h.nl_text) for h in hypotheses])


@dataclass(frozen=True)
class Uniform:
    pass


@dataclass(frozen=True)
class Tuned:
    theta: np.ndarray
    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.shape != (self.extractor.dim,):
            raise ValueError(
                f"theta has dim {theta.shape}, extractor expects {self.extractor.dim}"
            )


@dataclass(frozen=True)
class External:
    scores: Dict[str, float]  # canonical NL -> log-probability


def prior_logweight(spec, h: Hypothesis) -> float:
    """Unnormalized log prior weight; normalization happens over a pool."""
    if isinstance(spec, Uniform):
        return 0.0
    if isinstance(spec, Tuned):
        return float(spec.theta @ spec.extractor(h.nl_text))
    if isinstance(spec, External):
        key = h.key
        if key not in spec.scores:
            raise MissingFeature(key)
        return float(spec.scores[key])
    raise TypeError(f"unknown prior spec {spec!r}")
