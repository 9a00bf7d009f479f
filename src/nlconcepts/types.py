"""Core value types shared across the library.

Everything here is an immutable value type: safe to hash, share between
threads, and use as cache keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

SHAPES = ("triangle", "rectangle", "circle")
COLORS = ("green", "yellow", "blue")
SIZES = (1, 2, 3)

SIZE_NAMES = {1: "small", 2: "medium", 3: "large"}


def check_integer(name: str, value, least=None, error=ValueError):
    """`value` if it is an integer, not a bool, of at least `least`; else `error`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} is not an integer: {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, not {value}")
    return value


def check_finite_number(name: str, value):
    """`value` if it is a finite number, not a bool, that converts to a
    float without overflow; else a ValueError."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        finite = number and math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None
    if not finite:
        raise ValueError(f"{name} is not a finite number: {value!r}")
    return value


def canonicalize_nl(text: str) -> str:
    """Normalize a natural-language rule for deduplication.

    Lowercase, strip, collapse internal whitespace, drop one trailing
    period. Idempotent.
    """
    out = " ".join(text.split()).lower()
    if out.endswith("."):
        out = out[:-1].rstrip()
    return out


@dataclass(frozen=True)
class Unparsed:
    """Marker for a rule whose translation failed to parse.

    Such hypotheses stay in the pool (so pool sizes match proposal
    budgets) but contribute zero likelihood and show up in diagnostics.
    """

    source: str


@dataclass(frozen=True)
class Hypothesis:
    """A candidate rule: NL text plus its compiled concept program.

    `key` is the canonical NL (`canonicalize_nl(nl_text)`), computed once
    when the instance is built and kept in its `__dict__`: not a field,
    so it is left out of repr, equality and hashing, and
    `dataclasses.replace` computes it again for the new text.
    """

    nl_text: str
    program: object  # ConceptProgram or Unparsed
    proposal_logprob: Optional[float] = None
    source_batch: Optional[int] = None

    def __post_init__(self):
        key = self.__dict__["key"] = canonicalize_nl(self.nl_text)
        if not key:
            raise ValueError("hypothesis text is empty after normalization")

    @property
    def parsed(self) -> bool:
        return not isinstance(self.program, Unparsed)


@dataclass(frozen=True)
class NumberExampleSet:
    examples: Tuple[int, ...]

    def __init__(self, examples: Sequence[int]):
        examples = tuple(int(x) for x in examples)
        if not examples:
            raise ValueError("example set must be non-empty")
        if any(not 1 <= x <= 100 for x in examples):
            raise ValueError("examples must lie in 1..100")
        object.__setattr__(self, "examples", examples)

    def __len__(self) -> int:
        return len(self.examples)


@dataclass(frozen=True, order=True)
class ShapeObject:
    shape: str
    color: str
    size: int

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"bad shape: {self.shape!r}")
        if self.color not in COLORS:
            raise ValueError(f"bad color: {self.color!r}")
        if self.size not in SIZES:
            raise ValueError(f"bad size: {self.size!r}")

    def describe(self) -> str:
        return f"{SIZE_NAMES[self.size]} {self.color} {self.shape}"


def shape_universe() -> list:
    """All 27 distinct shape objects."""
    return [
        ShapeObject(s, c, z) for s in SHAPES for c in COLORS for z in SIZES
    ]


@dataclass(frozen=True)
class Trial:
    """One logical-domain datum: a batch, a test object in it, a label."""

    batch: Tuple[ShapeObject, ...]
    test: ShapeObject
    label: bool

    def __init__(self, batch: Sequence[ShapeObject], test: ShapeObject, label: bool):
        batch = tuple(batch)
        if not 1 <= len(batch) <= 5:
            raise ValueError("batch must hold 1..5 objects")
        if test not in batch:
            raise ValueError("test object must occur in the batch")
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "test", test)
        object.__setattr__(self, "label", bool(label))


@dataclass(frozen=True)
class HumanNumberJudgment:
    example_set: NumberExampleSet
    test_number: int
    mean_rating: float  # already mapped into [0, 1]
    set_id: str = ""

    def __post_init__(self):
        if not 1 <= self.test_number <= 100:
            raise ValueError("test number must lie in 1..100")
        if not 0.0 <= self.mean_rating <= 1.0:
            raise ValueError("mean rating must lie in [0, 1]")


def normalize_rating(raw: float) -> float:
    """Map a raw 1-7 mean rating onto [0, 1].

    The learnable Platt transform absorbs any residual affine mismatch,
    so the exact choice here is unidentifiable; raw-scale round-tripping
    is not supported.
    """
    return (raw - 1.0) / 6.0


@dataclass(frozen=True)
class LearningCurve:
    """An online logical-concept episode, truncated to 15 batches."""

    concept_id: str
    ground_truth_nl: str
    batches: Tuple[Tuple[Trial, ...], ...]
    human_positive_rate: Tuple[float, ...]

    MAX_BATCHES = 15

    def __init__(self, concept_id, ground_truth_nl, batches, human_positive_rate):
        batches = tuple(tuple(b) for b in batches)[: self.MAX_BATCHES]
        n_trials = sum(len(b) for b in batches)
        rates = tuple(float(r) for r in human_positive_rate)[:n_trials]
        if len(rates) != n_trials:
            raise ValueError("need one human rate per trial")
        object.__setattr__(self, "concept_id", concept_id)
        object.__setattr__(self, "ground_truth_nl", ground_truth_nl)
        object.__setattr__(self, "batches", batches)
        object.__setattr__(self, "human_positive_rate", rates)

    @property
    def trials(self) -> Tuple[Trial, ...]:
        return tuple(t for b in self.batches for t in b)


@dataclass
class ModelParams:
    """All learnable parameters, stored in their constrained form.

    epsilon and alpha live in (0,1), beta and temperature are positive;
    the optimizer works in an unconstrained space (see fit.SLOTS).
    platt_a/platt_b only apply to the number domain.
    """

    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    epsilon: float = 0.1
    alpha: float = 0.5
    beta: float = 0.0
    temperature: float = 1.0
    platt_a: float = 1.0
    platt_b: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        for name in ("epsilon", "alpha", "beta", "temperature", "platt_a", "platt_b"):
            check_finite_number(name, getattr(self, name))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0,1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
