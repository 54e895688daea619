"""Result types shared by all interpretation methods.

Three layers of result:

* :class:`CoreParameterEstimate` — one pair's ``(D_{c,c'}, B_{c,c'})`` with
  the residual diagnostics of the solve that produced it;
* :class:`Interpretation` — a full per-class interpretation: the decision
  features ``D_c`` plus every pair estimate, iteration/query accounting;
* :class:`Attribution` — the lowest common denominator every method
  (OpenAPI, naive, LIME, ZOO, gradients) can produce: a feature-importance
  vector plus optional sample/query metadata, consumed by the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["CoreParameterEstimate", "Interpretation", "Attribution"]


@dataclass(frozen=True)
class CoreParameterEstimate:
    """Estimated core parameters of one class pair (Equation 2).

    Attributes
    ----------
    c, c_prime:
        The class pair the estimate separates.
    weights:
        ``D_{c,c'}`` — the decision boundary direction between the classes.
    intercept:
        ``B_{c,c'} = b_c - b_{c'}``.
    residual:
        Relative residual of the least-squares solve (certificate input).
    certified:
        Whether the overdetermined system passed the consistency
        certificate.  Always ``False`` for methods with no certificate.
    """

    c: int
    c_prime: int
    weights: np.ndarray
    intercept: float
    residual: float = float("nan")
    certified: bool = False

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError(f"weights must be 1-D, got shape {w.shape}")
        object.__setattr__(self, "weights", w)
        if self.c == self.c_prime:
            raise ValidationError("c and c_prime must differ")


@dataclass(frozen=True)
class Interpretation:
    """A complete interpretation of one prediction for one class.

    Attributes
    ----------
    x0:
        The instance interpreted.
    target_class:
        The class ``c`` whose decision features were computed.
    decision_features:
        ``D_c`` (Equation 1) — the method's answer.
    pair_estimates:
        ``(c, c') -> CoreParameterEstimate`` for every solved pair.
    method:
        Human-readable method name ("openapi", "naive", ...).
    iterations:
        Number of hypercube shrink iterations used (OpenAPI's ``T``).
    final_edge:
        Hypercube edge length of the successful iteration.
    n_queries:
        API queries consumed producing this interpretation.
    samples:
        The perturbed instances of the successful iteration (used by the
        RD/WD sample-quality metrics), or ``None``.  Always this
        instance's own ``(d + 1, d)`` block: the lock-step batch
        interpreter copies it out of the round's shared buffer, so
        holding an interpretation never keeps a whole batch alive.
    """

    x0: np.ndarray
    target_class: int
    decision_features: np.ndarray
    pair_estimates: Mapping[tuple[int, int], CoreParameterEstimate] = field(
        default_factory=dict
    )
    method: str = "unknown"
    iterations: int = 0
    final_edge: float = float("nan")
    n_queries: int = 0
    samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=np.float64)
        feats = np.asarray(self.decision_features, dtype=np.float64)
        if x0.ndim != 1:
            raise ValidationError(f"x0 must be 1-D, got shape {x0.shape}")
        if feats.shape != x0.shape:
            raise ValidationError(
                f"decision_features shape {feats.shape} != x0 shape {x0.shape}"
            )
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "decision_features", feats)
        object.__setattr__(self, "pair_estimates", dict(self.pair_estimates))

    @property
    def all_certified(self) -> bool:
        """True when every pair estimate carries a passing certificate."""
        if not self.pair_estimates:
            return False
        return all(est.certified for est in self.pair_estimates.values())

    def to_attribution(self) -> "Attribution":
        """Down-convert to the common denominator used by the metrics."""
        return Attribution(
            values=self.decision_features,
            method=self.method,
            samples=self.samples,
            n_queries=self.n_queries,
            target_class=self.target_class,
        )


@dataclass(frozen=True)
class Attribution:
    """A feature-importance vector with provenance metadata.

    The lowest-common-denominator result of *any* interpretation method;
    every metric in :mod:`repro.metrics` consumes these.
    """

    values: np.ndarray
    method: str = "unknown"
    target_class: int = -1
    samples: np.ndarray | None = None
    n_queries: int = 0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValidationError(f"values must be 1-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        if self.samples is not None:
            s = np.asarray(self.samples, dtype=np.float64)
            if s.ndim != 2 or s.shape[1] != v.shape[0]:
                raise ValidationError(
                    f"samples must be (n, {v.shape[0]}), got {s.shape}"
                )
            object.__setattr__(self, "samples", s)

    @property
    def n_features(self) -> int:
        return int(self.values.shape[0])

    def top_features(self, k: int) -> np.ndarray:
        """Indices of the ``k`` largest-|weight| features, descending."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        k = min(k, self.n_features)
        order = np.argsort(-np.abs(self.values), kind="stable")
        return order[:k]
