"""Batched solve engine: every pair system of every instance in one shot.

The closed-form solve at the heart of Algorithm 1 is pure local linear
algebra, and it is *embarrassingly batchable*: each instance contributes a
``(n, d+1)`` centered/scaled design matrix and a ``(n, C-1)`` multi-RHS
log-odds target block, and nothing couples the instances.  This module
stacks ``k`` such systems into 3-D tensors and solves them with one fused
batched pass:

1. stack designs ``A`` into ``(k, n, d+1)`` and targets ``T`` into
   ``(k, n, C-1)``;
2. form the normal equations ``G = AᵀA`` (``(k, d+1, d+1)``) and
   ``R = AᵀT`` (``(k, d+1, C-1)``) with two batched matmuls;
3. solve every block with one batched LU ``solve`` whose right-hand
   sides carry a few fixed probe columns next to ``R``; the probe
   solutions give a cheap estimate of each Gram condition number (no
   second factorization, no spectrum).  Well-conditioned blocks keep the
   LU solution, while ill-conditioned / exactly singular blocks fall back
   to the per-block SVD ``lstsq`` path (bit-identical to the pre-engine
   reference, including its rank and singular-value diagnostics);
4. residual norms, centered-target denominators and certificate verdicts
   are computed vectorized over the whole ``(k, C-1)`` grid.

Because the shared design is centered on the interpreted instance and
scaled to unit spread (see :mod:`repro.utils.linalg`), the Gram
conditioning does not grow as the hypercube edge shrinks; it depends on
the sample geometry alone (measured ``cond(G)`` up to ~1e8 at
``d = 784``).  Where the normal-equations path is taken it is accurate
to ``cond(G)·(d+1)·eps`` norm-wise, and the conditioning screen routes
everything worse to ``lstsq``.

Every solve path in the library funnels through this engine:
:func:`repro.core.equations.solve_all_pairs` (and therefore
:func:`repro.core.rounds.run_solve_round`, the sequential interpreter and
``interpret_all_classes``) call it with ``k = 1``;
:class:`repro.core.batch.BatchOpenAPIInterpreter` and the serving layer
call it with one block per active instance per lock-step round via
:func:`repro.core.rounds.run_solve_rounds_batched`.

:func:`reference_solve_all_pairs` preserves the pre-engine per-instance
implementation verbatim; the property suite pins the engine against it
(allclose parameters, identical certificate verdicts) and
``benchmarks/bench_solve_engine.py`` measures the speedup.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from repro.core.backend import ArrayBackend, as_float64, resolve_backend
from repro.core.equations import (
    DEFAULT_PROB_FLOOR,
    PairSystemSolution,
    pairwise_log_odds_targets,
)
from repro.exceptions import ValidationError
from repro.utils.linalg import (
    DEFAULT_CERTIFICATE_ATOL,
    DEFAULT_CERTIFICATE_RTOL,
    AffineLeastSquaresResult,
    consistency_certificate,
)

__all__ = [
    "solve_pair_systems_stacked",
    "reference_solve_all_pairs",
    "EngineBenchRow",
    "EngineBenchReport",
    "run_engine_benchmark",
    "run_standard_engine_benchmark",
    "GRAM_CONDITION_RTOL",
    "ENGINE_ACCEPTANCE_POINT",
    "ENGINE_SPEEDUP_THRESHOLD",
]

#: Conditioning screen for the normal-equations fast path: a block whose
#: design condition number exceeds ``1 / GRAM_CONDITION_RTOL`` (Gram
#: condition ``cond(G)`` above ``GRAM_CONDITION_RTOL⁻²`` = 1e12) must take
#: the per-block ``lstsq`` fallback.  The engine never computes the Gram
#: spectrum; it estimates ``cond(G)`` from the LU solve it already runs
#: (:func:`_gram_condition_estimates`), and the estimate can undershoot
#: the true value.  The screen therefore carries a safety factor of
#: :data:`_SCREEN_SAFETY` (1e3): a block falls back once its estimate
#: reaches ``GRAM_CONDITION_RTOL⁻² / _SCREEN_SAFETY`` = 1e9.  A block
#: with ``cond(G) ≥ 1e12`` passes only if its smallest eigenvector is
#: nearly orthogonal to all :data:`_N_PROBES` probes, which for
#: eigenvectors independent of the fixed probes has probability about
#: ``(4e-6 · (d+1))⁴ / 24`` — below 1e-11 at the paper's image scale
#: ``d = 784``.  Conversely the estimate never exceeds ``√(d+1) ·
#: cond(G)``, so every block with ``cond(G) < 1e9 / √(d+1)`` keeps the
#: fast path.  Centered/scaled Algorithm-1 Gram matrices measure at
#: ``cond(G)`` up to ~1e8 even at ``d = 784`` (where ``n = d + 2`` makes
#: the design nearly square), so the fallback only fires for genuinely
#: degenerate sample sets (duplicated points, rank-deficient blocks).
GRAM_CONDITION_RTOL: float = 1e-6

#: Factor by which the screen's limit on the *estimated* Gram condition
#: number sits below the true ``GRAM_CONDITION_RTOL⁻²`` threshold (see
#: above).
_SCREEN_SAFETY: float = 1e3

#: Fixed Gaussian probe columns appended to every block's right-hand
#: sides; their solutions ``G⁻¹V`` estimate ``1 / eig_min``.
_N_PROBES: int = 8
_PROBE_SEED: int = 0


@functools.lru_cache(maxsize=8)
def _condition_probes(m: int) -> np.ndarray:
    """The read-only ``(m, _N_PROBES)`` probe matrix ``V`` for ``m × m``
    Gram blocks, scaled to ``‖V‖_F = 1``.

    Seeded, so routing is a pure function of the Gram stack: every block
    of every call sees the same probes.
    """
    probes = np.random.default_rng(_PROBE_SEED).standard_normal((m, _N_PROBES))
    # repro-lint: disable=backend-seam host-side constant; the probes are built once per size on the host
    probes /= np.linalg.norm(probes)
    probes.flags.writeable = False
    return probes


def _gram_condition_estimates(
    be: ArrayBackend, gram, probe_solutions: np.ndarray
) -> np.ndarray:
    """Per-block estimate ``‖G‖_F · ‖G⁻¹V‖_F`` of ``cond(G)``, ``‖V‖_F = 1``.

    ``‖G‖_F ≥ eig_max`` and ``‖G⁻¹V‖_F ≤ 1 / eig_min``, so the estimate
    is at most ``√m · cond(G)``; it undershoots only by how little of
    the smallest eigenvector the probes see (about ``1 / √m`` for
    Gaussian probes, usually far less thanks to the Frobenius slack).
    A block whose probe solutions are not finite (an exactly singular
    Gram matrix) gets ``nan`` or ``inf``, which fails the screen.
    """
    gram_sq = be.to_host(be.einsum("kij,kij->k", gram, gram))
    # repro-lint: disable=backend-seam host-side screen norms over the (k, m, _N_PROBES) probe solutions already on the host
    inverse_sq = np.einsum("kij,kij->k", probe_solutions, probe_solutions)
    return np.sqrt(gram_sq * inverse_sq)


def _solve_per_block(be: ArrayBackend, gram, rhs) -> np.ndarray:
    """Solve block by block after a batched ``solve`` hit a singular block.

    One exactly singular Gram matrix makes the batched call raise for the
    whole stack; re-solving each block alone keeps the healthy blocks on
    the fast path and leaves the singular ones ``nan`` (so the screen
    routes exactly those to ``lstsq``).
    """
    k, m, q = rhs.shape
    solutions = np.full((k, m, q), np.nan)
    for b in range(k):
        try:
            solutions[b] = be.to_host(be.solve(gram[b], rhs[b]))
        except be.linalg_error:
            pass
    return solutions


def _stacked_targets(
    log_p: np.ndarray, target_classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance log-odds targets against every other class.

    Parameters
    ----------
    log_p:
        ``(k, n, C)`` clamped log-probabilities.
    target_classes:
        ``(k,)`` base class per instance.

    Returns
    -------
    (targets, others):
        ``targets`` is ``(k, n, C-1)``; ``others`` is the ``(k, C-1)``
        matching ``c'`` column indices in ascending order (mirroring
        :func:`repro.core.equations.pairwise_log_odds_targets`).
    """
    k, _, C = log_p.shape
    class_grid = np.broadcast_to(np.arange(C), (k, C))
    others = class_grid[class_grid != target_classes[:, None]].reshape(k, C - 1)
    lead = np.take_along_axis(log_p, target_classes[:, None, None], axis=2)
    rest = np.take_along_axis(log_p, others[:, None, :], axis=2)
    return lead - rest, others


def solve_pair_systems_stacked(
    points: np.ndarray,
    probs: np.ndarray,
    target_classes: np.ndarray,
    *,
    centers: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    atol: float = DEFAULT_CERTIFICATE_ATOL,
    floor: float = DEFAULT_PROB_FLOOR,
    check_certificate: bool = True,
    backend: str | ArrayBackend | None = None,
) -> list[dict[tuple[int, int], PairSystemSolution]]:
    """Solve every class pair of every stacked instance in one fused pass.

    Parameters
    ----------
    points:
        ``(k, n, d)`` equation points, one block per instance.
    probs:
        ``(k, n, C)`` matching API probability rows.
    target_classes:
        ``(k,)`` base class per instance (blocks may differ).
    centers:
        ``(k, d)`` centering points (the interpreted instances); ``None``
        centers each block on its sample mean.
    rtol, atol:
        Consistency-certificate thresholds.
    floor:
        Probability clamp for the log-odds transform.
    check_certificate:
        When false every solution reports ``certified=False`` (the naive
        determined-system path).
    backend:
        The :class:`~repro.core.backend.ArrayBackend` (or its name) that
        runs the batched device section — the Gram/RHS matmuls, the
        batched ``solve`` (whose probe columns feed the conditioning
        screen) and the per-block ``lstsq`` fallback.  ``None`` resolves
        the process default (:func:`~repro.core.backend.resolve_backend`).
        Design construction, residual norms and certificate verdicts
        always run host-side in numpy, so verdicts are decided by one
        code path for every backend.

    Returns
    -------
    One ``(c, c') -> PairSystemSolution`` dict per instance, in input
    order — element ``i`` is exactly what
    :func:`repro.core.equations.solve_all_pairs` returns for block ``i``.

    Raises
    ------
    ValidationError
        For mis-shaped ``points``/``probs``/``target_classes``/``centers``,
        out-of-range class indices, fewer than ``d + 1`` equations per
        block, or a non-positive ``floor``.

    Notes
    -----
    Complexity: :math:`O(k\\,(n (d+1)^2 + (d+1)^3 + (n + d) (d+1) C))`
    for the stacked Gram build, one batched LU factorization (the
    normal-equations ``solve``) and the multi-RHS back-substitution and
    residual grid — all issued as a constant number of batched
    LAPACK/BLAS calls regardless of ``k``, which is where the measured
    speedup over the per-instance reference loop comes from.  The
    conditioning screen adds only :data:`_N_PROBES` right-hand sides to
    that back-substitution and a ``‖G‖_F`` reduction
    (:math:`O(k (d+1)^2)`); no spectrum is computed.  Degenerate blocks
    add one per-block SVD ``lstsq`` (:math:`O(n (d+1)^2)` each), and a
    stack holding an exactly singular Gram matrix is re-solved block by
    block.
    """
    be = resolve_backend(backend)
    points = as_float64(points)
    probs = as_float64(probs)
    target_classes = np.asarray(target_classes, dtype=np.intp)
    if points.ndim != 3:
        raise ValidationError(f"points must be 3-D (k, n, d), got shape {points.shape}")
    k, n, d = points.shape
    if k == 0:
        return []
    if probs.ndim != 3 or probs.shape[:2] != (k, n):
        raise ValidationError(
            f"probs must be ({k}, {n}, C) to match points, got {probs.shape}"
        )
    C = probs.shape[2]
    if target_classes.shape != (k,):
        raise ValidationError(
            f"target_classes must have shape ({k},), got {target_classes.shape}"
        )
    if np.any((target_classes < 0) | (target_classes >= C)):
        bad = int(target_classes[(target_classes < 0) | (target_classes >= C)][0])
        raise ValidationError(f"class index {bad} out of range [0, {C})")
    if n < d + 1:
        raise ValidationError(f"need at least d+1={d + 1} equations, got {n}")
    if floor <= 0:
        raise ValidationError(f"floor must be > 0, got {floor}")
    if centers is None:
        centers_arr = points.mean(axis=1)
    else:
        centers_arr = as_float64(centers)
        if centers_arr.shape != (k, d):
            raise ValidationError(
                f"centers must have shape ({k}, {d}), got {centers_arr.shape}"
            )

    log_p = np.log(np.clip(probs, floor, None))
    targets, others = _stacked_targets(log_p, target_classes)

    # Stacked centered/scaled designs (same math as solve_all_pairs,
    # vectorized over instances as well as right-hand sides), built in
    # place: at image scale each (k, n, d) temporary is ~39 MiB.
    design = np.empty((k, n, d + 1))
    design[:, :, 0] = 1.0
    offsets = design[:, :, 1:]
    np.subtract(points, centers_arr[:, None, :], out=offsets)
    scale = np.maximum(offsets.max(axis=(1, 2)), -offsets.min(axis=(1, 2)))
    scale = np.where((scale == 0.0) | ~np.isfinite(scale), 1.0, scale)
    offsets /= scale[:, None, None]

    # Device section: the contiguous stacks cross the backend seam once
    # (the small right-hand-side stack returns to pick up the probe
    # columns); the conditioning screen and routing masks stay host-side.
    design_dev = be.asarray(design)
    targets_dev = be.asarray(targets)
    design_t = be.bT(design_dev)
    gram = be.matmul(design_t, design_dev)      # (k, d+1, d+1)
    rhs = be.matmul(design_t, targets_dev)      # (k, d+1, C-1)

    # One batched LU solve serves both the fast path and the conditioning
    # screen: the fixed probe columns ride along as extra right-hand
    # sides, and their solutions estimate each block's cond(G).
    m = d + 1
    probes = _condition_probes(m)
    rhs_probed = be.asarray(np.concatenate(
        [be.to_host(rhs), np.broadcast_to(probes, (k, m, _N_PROBES))], axis=2
    ))
    try:
        solutions = be.to_host(be.solve(gram, rhs_probed))
    except be.linalg_error:
        solutions = _solve_per_block(be, gram, rhs_probed)
    estimates = _gram_condition_estimates(be, gram, solutions[:, :, C - 1:])
    # Written as "estimate below the limit" so nan (singular) blocks fail.
    fast = estimates < 1.0 / (GRAM_CONDITION_RTOL**2 * _SCREEN_SAFETY)

    betas = np.ascontiguousarray(solutions[:, :, : C - 1])
    ranks = np.full(k, d + 1, dtype=np.intp)
    singular_values = [np.empty(0)] * k
    condition_estimates: list[float | None] = np.sqrt(estimates).tolist()
    for b in np.nonzero(~fast)[0]:
        # Degenerate block: the SVD path reproduces the pre-engine
        # reference exactly, rank and singular values included.
        beta_b, rank_b, sv_b = be.lstsq(design_dev[b], targets_dev[b])
        betas[b] = be.to_host(beta_b)
        ranks[b] = rank_b
        singular_values[b] = sv_b
        condition_estimates[b] = None

    # repro-lint: disable=backend-seam host-side residual path; must reduce in the reference summation order bitwise (see below)
    residuals = design @ betas - targets
    # Norms and means reduce over the *innermost contiguous* axis of the
    # transposed copies so the pairwise summation order matches the
    # per-column reference exactly — otherwise a constant target column
    # can yield denom 0.0 on one path and ~1e-31 on the other, flipping
    # the degenerate branch below.
    residuals_t = np.ascontiguousarray(residuals.transpose(0, 2, 1))
    targets_t = np.ascontiguousarray(targets.transpose(0, 2, 1))
    res_norms = np.linalg.norm(residuals_t, axis=2)  # (k, C-1)  repro-lint: disable=backend-seam host-side certificate norms in reference order
    # repro-lint: disable=backend-seam host-side certificate norms in reference order
    denoms = np.linalg.norm(
        targets_t - targets_t.mean(axis=2, keepdims=True), axis=2
    )
    relatives = np.divide(
        res_norms, denoms, out=res_norms.copy(), where=denoms > 0
    )
    weights = betas[:, 1:, :] / scale[:, None, None]                # (k, d, C-1)
    # repro-lint: disable=backend-seam host-side intercept recentering; must match the reference dot order bitwise
    intercepts = betas[:, 0, :] - np.einsum(
        "kd,kdp->kp", centers_arr, weights
    )

    overdetermined = n > d + 1
    certified_grid = (
        overdetermined
        & check_certificate
        & (ranks[:, None] == d + 1)
        & ((res_norms <= atol) | (relatives <= rtol))
    )

    # Result materialization is the only per-pair Python work left; bulk
    # tolist() conversions keep it from dominating the fused math above.
    weights_rows = np.ascontiguousarray(weights.transpose(0, 2, 1))
    intercepts_list = intercepts.tolist()
    res_norms_list = res_norms.tolist()
    relatives_list = relatives.tolist()
    certified_list = certified_grid.tolist()
    others_list = others.tolist()
    classes_list = target_classes.tolist()
    ranks_list = ranks.tolist()
    n_unknowns = d + 1
    result_cls = AffineLeastSquaresResult
    solution_cls = PairSystemSolution
    out: list[dict[tuple[int, int], PairSystemSolution]] = []
    for b in range(k):
        c = classes_list[b]
        sv_b = singular_values[b]
        cond_b = condition_estimates[b]
        rank_b = ranks_list[b]
        w_b = weights_rows[b]
        intercepts_b = intercepts_list[b]
        res_b = res_norms_list[b]
        rel_b = relatives_list[b]
        certified_b = certified_list[b]
        others_b = others_list[b]
        solutions: dict[tuple[int, int], PairSystemSolution] = {}
        for col in range(C - 1):
            c_prime = others_b[col]
            result = result_cls(
                weights=w_b[col],
                intercept=intercepts_b[col],
                residual_norm=res_b[col],
                relative_residual=rel_b[col],
                rank=rank_b,
                n_equations=n,
                n_unknowns=n_unknowns,
                singular_values=sv_b,
                condition_estimate=cond_b,
            )
            solutions[(c, c_prime)] = solution_cls(
                c=c,
                c_prime=c_prime,
                result=result,
                certified=certified_b[col],
            )
        out.append(solutions)
    return out


def reference_solve_all_pairs(
    points: np.ndarray,
    probs: np.ndarray,
    c: int,
    *,
    center: np.ndarray | None = None,
    rtol: float = DEFAULT_CERTIFICATE_RTOL,
    atol: float = DEFAULT_CERTIFICATE_ATOL,
    floor: float = DEFAULT_PROB_FLOOR,
    check_certificate: bool = True,
) -> dict[tuple[int, int], PairSystemSolution]:
    """The pre-engine per-instance solve, preserved as the pinned reference.

    One ``lstsq`` multi-RHS solve per instance, plus a Python loop over
    pairs.  The property suite asserts the batched engine reproduces this
    implementation (allclose parameters and residuals, identical
    certificate verdicts); ``benchmarks/bench_solve_engine.py`` measures
    how much faster the fused path is.  Not a production path.

    Parameters
    ----------
    points, probs, c, center, rtol, atol, floor, check_certificate:
        One instance's slice of the stacked inputs of
        :func:`solve_pair_systems_stacked` (``c`` is the scalar target
        class, ``center`` the single centering point).

    Returns
    -------
    ``(c, c') -> PairSystemSolution`` for every pair of ``c``.

    Raises
    ------
    ValidationError
        For mis-shaped ``points``/``probs``/``center`` or fewer than
        ``d + 1`` equations.

    Notes
    -----
    Complexity: :math:`O(n (d+1)^2 + n (d+1) C)` per call via one SVD
    ``lstsq`` — the same arithmetic as one engine block, but dispatched
    per instance from Python (the overhead the engine amortizes away).
    """
    points = as_float64(points)
    probs = as_float64(probs)
    if points.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if probs.shape[0] != n:
        raise ValidationError(f"probs must have {n} rows, got {probs.shape[0]}")
    if n < d + 1:
        raise ValidationError(f"need at least d+1={d + 1} equations, got {n}")

    targets, pairs = pairwise_log_odds_targets(probs, c, floor=floor)

    if center is None:
        center_vec = points.mean(axis=0)
    else:
        center_vec = as_float64(center)
        if center_vec.shape != (d,):
            raise ValidationError(
                f"center must have shape ({d},), got {center_vec.shape}"
            )
    offsets = points - center_vec
    scale = float(np.max(np.abs(offsets)))
    if scale == 0.0 or not np.isfinite(scale):
        scale = 1.0
    design = np.hstack([np.ones((n, 1)), offsets / scale])

    betas, _, rank, sv = np.linalg.lstsq(design, targets, rcond=None)
    residuals = design @ betas - targets
    overdetermined = n > d + 1

    solutions: dict[tuple[int, int], PairSystemSolution] = {}
    for col, pair in enumerate(pairs):
        beta = betas[:, col]
        res_norm = float(np.linalg.norm(residuals[:, col]))
        denom = float(np.linalg.norm(targets[:, col] - targets[:, col].mean()))
        relative = res_norm / denom if denom > 0 else res_norm
        weights = beta[1:] / scale
        intercept = float(beta[0] - weights @ center_vec)
        result = AffineLeastSquaresResult(
            weights=weights,
            intercept=intercept,
            residual_norm=res_norm,
            relative_residual=float(relative),
            rank=int(rank),
            n_equations=n,
            n_unknowns=d + 1,
            singular_values=np.asarray(sv, dtype=np.float64),
        )
        certified = bool(
            overdetermined
            and check_certificate
            and consistency_certificate(result, rtol=rtol, atol=atol)
        )
        solutions[pair] = PairSystemSolution(
            c=pair[0], c_prime=pair[1], result=result, certified=certified
        )
    return solutions


# --------------------------------------------------------------------- #
# Engine throughput measurement (shared by bench_solve_engine.py, the
# CLI ``bench-engine`` subcommand and the serving benchmark report).
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineBenchRow:
    """Engine vs reference-loop throughput at one ``(k, d, C)`` point."""

    n_instances: int
    n_points: int
    d: int
    C: int
    engine_solves_per_s: float
    reference_solves_per_s: float
    speedup: float
    max_weight_diff: float

    def as_dict(self) -> dict[str, float | int]:
        return {
            "n_instances": self.n_instances,
            "n_points": self.n_points,
            "d": self.d,
            "C": self.C,
            "engine_solves_per_s": self.engine_solves_per_s,
            "reference_solves_per_s": self.reference_solves_per_s,
            "speedup": self.speedup,
            "max_weight_diff": self.max_weight_diff,
        }


@dataclass(frozen=True)
class EngineBenchReport:
    """The grid of throughput rows plus a text rendering."""

    rows: tuple[EngineBenchRow, ...]

    def as_text(self) -> str:
        lines = [
            "solve engine throughput: fused batched solve vs reference loop",
            "",
            f"{'k':>5} {'n':>4} {'d':>4} {'C':>4} "
            f"{'engine/s':>11} {'reference/s':>12} {'speedup':>8} "
            f"{'max |dW|':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.n_instances:>5} {row.n_points:>4} {row.d:>4} "
                f"{row.C:>4} {row.engine_solves_per_s:>11.0f} "
                f"{row.reference_solves_per_s:>12.0f} "
                f"{row.speedup:>7.1f}x {row.max_weight_diff:>10.2e}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, list[dict[str, float | int]]]:
        return {"rows": [row.as_dict() for row in self.rows]}


def _bench_problem(
    n_instances: int, n_points: int, d: int, C: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A synthetic stacked solve problem shaped like a lock-step round."""
    rng = np.random.default_rng(seed)
    x0s = rng.normal(size=(n_instances, d))
    samples = x0s[:, None, :] + rng.uniform(
        -0.5, 0.5, size=(n_instances, n_points - 1, d)
    )
    points = np.concatenate([x0s[:, None, :], samples], axis=1)
    # Affine log-odds plus a pinch of noise: realistic residual scales
    # without every certificate trivially passing.
    W = rng.normal(size=(d, C))
    logits = points @ W + rng.normal(scale=1e-10, size=(n_instances, n_points, C))
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    classes = rng.integers(0, C, size=n_instances)
    return points, probs, classes, x0s


def run_engine_benchmark(
    configs: list[tuple[int, int, int]] | None = None,
    *,
    repeats: int = 20,
    seed: int = 0,
) -> EngineBenchReport:
    """Time the batched engine against the reference loop over a grid.

    Parameters
    ----------
    configs:
        ``(n_instances, d, C)`` grid points; defaults to a sweep around
        the acceptance point ``(64, 16, 10)`` plus the paper's image
        scale ``(8, 784, 10)``.  ``n_points`` is the Algorithm-1 shape
        ``d + 2`` throughout.
    repeats:
        Timed repetitions per configuration (best-of is reported to shed
        scheduler noise).
    seed:
        Synthetic problem seed.

    Returns
    -------
    An :class:`EngineBenchReport` with one :class:`EngineBenchRow` per
    configuration (throughputs, speedup, and the engine-vs-reference
    max weight difference re-checked on the timed problems).
    """
    if configs is None:
        configs = [
            (16, 8, 3), (64, 16, 10), (256, 16, 10), (64, 32, 5),
            (8, 784, 10),
        ]
    rows = []
    for n_instances, d, C in configs:
        n_points = d + 2
        points, probs, classes, centers = _bench_problem(
            n_instances, n_points, d, C, seed
        )

        def engine_pass():
            return solve_pair_systems_stacked(
                points, probs, classes, centers=centers
            )

        def reference_pass():
            return [
                reference_solve_all_pairs(
                    points[b], probs[b], int(classes[b]), center=centers[b]
                )
                for b in range(n_instances)
            ]

        engine_out = engine_pass()          # warm-up + correctness probe
        reference_out = reference_pass()
        max_diff = 0.0
        for eng, ref in zip(engine_out, reference_out):
            for pair, sol in ref.items():
                diff = np.abs(
                    eng[pair].result.weights - sol.result.weights
                ).max()
                max_diff = max(max_diff, float(diff))

        def best_time(fn):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()  # timing-ok: benchmark meter; timings never enter results
                fn()
                best = min(best, time.perf_counter() - t0)  # timing-ok: benchmark meter; timings never enter results
            return best

        t_engine = best_time(engine_pass)
        t_reference = best_time(reference_pass)
        rows.append(
            EngineBenchRow(
                n_instances=n_instances,
                n_points=n_points,
                d=d,
                C=C,
                engine_solves_per_s=n_instances / t_engine,
                reference_solves_per_s=n_instances / t_reference,
                speedup=t_reference / t_engine,
                max_weight_diff=max_diff,
            )
        )
    return EngineBenchReport(rows=tuple(rows))


#: The acceptance configuration ``(n_instances, d, C)`` the engine is
#: gated on: the batched path must beat the reference loop by at least
#: :data:`ENGINE_SPEEDUP_THRESHOLD` here.
ENGINE_ACCEPTANCE_POINT: tuple[int, int, int] = (64, 16, 10)

#: Required engine-vs-reference speedup at the acceptance point.
ENGINE_SPEEDUP_THRESHOLD: float = 3.0

#: CI smoke grid, correctness-gated only: small shapes plus one
#: image-scale point, so the conditioning screen runs at ``d = 784``.
_TINY_BENCH_CONFIGS: list[tuple[int, int, int]] = [
    (8, 5, 3), (16, 8, 3), (2, 784, 10),
]


def run_standard_engine_benchmark(
    *, tiny: bool = False, repeats: int = 20, seed: int = 0
) -> tuple[EngineBenchReport, float]:
    """The canonical engine benchmark, shared by the CLI ``bench-engine``
    subcommand and ``benchmarks/bench_solve_engine.py``.

    Returns
    -------
    (report, speedup_threshold):
        The grid report plus the gate the caller should enforce at
        :data:`ENGINE_ACCEPTANCE_POINT` (0.0 for ``tiny``, where only the
        engine-vs-reference numerical agreement is meaningful).
    """
    if tiny:
        report = run_engine_benchmark(
            _TINY_BENCH_CONFIGS, repeats=min(repeats, 5), seed=seed
        )
        return report, 0.0
    report = run_engine_benchmark(repeats=repeats, seed=seed)
    return report, ENGINE_SPEEDUP_THRESHOLD


def acceptance_speedup(report: EngineBenchReport) -> float:
    """The measured speedup at :data:`ENGINE_ACCEPTANCE_POINT` (``inf``
    when the report does not contain that configuration, e.g. ``tiny``)."""
    for row in report.rows:
        if (row.n_instances, row.d, row.C) == ENGINE_ACCEPTANCE_POINT:
            return row.speedup
    return float("inf")


#: Engine-vs-reference weights must agree to solver rounding error at
#: every grid point (the property suite pins this per pair; the bench
#: re-checks it on the timed problems, ``tiny`` included).
MAX_ENGINE_WEIGHT_DIFF: float = 1e-6


def benchmark_gate_failures(
    report: EngineBenchReport, threshold: float
) -> list[str]:
    """Every reason ``report`` fails its gates (empty list = pass).

    The single gate definition shared by ``benchmarks/bench_solve_engine.py``
    and the CLI ``bench-engine`` subcommand: weight agreement with the
    reference at every row (enforced at ``tiny`` scale too), plus the
    ``threshold`` speedup at :data:`ENGINE_ACCEPTANCE_POINT`.
    """
    failures = []
    worst_diff = max(row.max_weight_diff for row in report.rows)
    if worst_diff > MAX_ENGINE_WEIGHT_DIFF:
        failures.append(
            f"engine weights diverge from reference by {worst_diff:.2e} "
            f"(gate {MAX_ENGINE_WEIGHT_DIFF:.0e})"
        )
    measured = acceptance_speedup(report)
    if measured < threshold:
        failures.append(
            f"engine speedup {measured:.1f}x below {threshold:.0f}x at "
            "the acceptance point"
        )
    return failures
