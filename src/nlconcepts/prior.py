"""Features of the priors over natural-language hypotheses.

Three priors (`harness.PRIORS`): uniform, tuned log-linear over text
features (log prior theta . phi(C)), and external (precomputed
log-scores, e.g. from an LM scoring pass, keyed by canonical NL). The
compiled tasks hold each as a base log-prior vector plus, for the tuned
prior, the feature rows (`harness._prior_pieces`). The features are a
deterministic hashed bag-of-tokens (words + word bigrams, signed
hashing, L2-normalized). `hashlib`, and with it OpenSSL, is imported
by the first feature extraction, not by importing the module, so a
uniform or external prior never loads it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .types import canonicalize_nl

FEATURE_DIM = 384

# Fixed, published hashing seed, the key of every token's hash. Changing
# it invalidates any saved theta.
HASH_SEED = 20240613
_HASH_KEY = str(HASH_SEED).encode()


class MissingFeature(KeyError):
    """An external score file lacks an entry for a hypothesis; the
    arguments are the file's path and the hypothesis's canonical text."""

    def __str__(self):
        return "score file {} has no score for {!r}".format(*self.args)


def extract_features(nl_text: str, dim: int = FEATURE_DIM) -> np.ndarray:
    """Deterministic hashed bag-of-tokens features, L2-normalized. Each
    word and word bigram adds a sign to a bucket, both read off its
    8-byte blake2b hash keyed by HASH_SEED."""
    import hashlib  # loaded by the first extraction, not by importing the library

    words = canonicalize_nl(nl_text).split()
    tokens = words + [f"{a}__{b}" for a, b in zip(words, words[1:])]
    vec = np.zeros(dim)
    for token in tokens:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=_HASH_KEY).digest()
        h = int.from_bytes(digest, "little")
        bucket = (h >> 1) % dim
        sign = 1.0 if h & 1 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class FeatureExtractor:
    """Caching front-end over the hashed features."""

    def __init__(self, dim: int = FEATURE_DIM):
        self.dim = dim
        self._cache: Dict[str, np.ndarray] = {}

    def __call__(self, nl_text: str) -> np.ndarray:
        key = canonicalize_nl(nl_text)
        if key not in self._cache:
            self._cache[key] = extract_features(key, self.dim)
        return self._cache[key]

    def matrix(self, hypotheses) -> np.ndarray:
        """Stacked feature matrix, one row per hypothesis."""
        return np.stack([self(h.nl_text) for h in hypotheses])
