"""Tightness maximization and nested refinements.

A small deterministic Nelder-Mead drives the test-function parameters of a
family toward the largest report ratio for a fixed inequality and geometry;
ratios never exceeding 1 + slack under this stress is the soundness
property the suite asserts.  :func:`refinements` is the one sequence of
nested refinements: ``verify --levels`` evaluates each case on it, and
``search --levels`` re-evaluates the best member on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidArgument, PreconditionViolated
from .geometry.domain import Domain
from .geometry.fields import FAMILIES, Field
from .inequalities import DEFAULT_SLACK_FLOOR, evaluate, require_vanishing


def refinements(domain: Domain, levels: int):
    """``(level, domain)`` for ``domain`` and its ``levels`` nested
    refinements, each built from the one before by :meth:`Domain.refined`."""
    yield 0, domain
    for level in range(1, levels + 1):
        domain = domain.refined()
        yield level, domain


@dataclass
class TightnessResult:
    """Outcome of one ratio-maximization run."""

    inequality: str
    best_ratio: float
    argmax_dof: tuple
    evaluations: int
    refinement_trace: list = dc_field(default_factory=list)
    seed: int = 0
    trace: list = dc_field(default_factory=list)
    slack: float = DEFAULT_SLACK_FLOOR  # the best report's slack
    quadrature_error: float = 0.0       # the best report's error estimate
    # evaluations after the memo: each distinct parameter vector once
    distinct_evaluations: int = 0
    rejected: int = 0      # of those, rejected by a precondition (scored 0)
    degenerate: int = 0    # degenerate or non-finite reports (scored 0)

    def to_dict(self) -> dict:
        return {
            "type": "search",
            "inequality": self.inequality,
            "best_ratio": self.best_ratio,
            "argmax_dof": list(self.argmax_dof),
            "evaluations": self.evaluations,
            "refinement_trace": [[int(l), float(x)]
                                 for l, x in self.refinement_trace],
            "seed": self.seed,
            "trace": [float(x) for x in self.trace],
            "slack": self.slack,
            "quadrature_error": self.quadrature_error,
            "distinct_evaluations": self.distinct_evaluations,
            "rejected": self.rejected,
            "degenerate": self.degenerate,
        }


def _clip_dof(kind: str, x: np.ndarray) -> np.ndarray:
    bounds = FAMILIES[kind].bounds
    return np.array([min(max(v, lo), hi) for v, (lo, hi) in zip(x, bounds)])


def nelder_mead(objective, x0: np.ndarray, step: float, budget: int,
                clip=None):
    """Simplex maximization with reflection 1, expansion 2, contraction 0.5.

    Deterministic; stops when the evaluation budget is exhausted.  Returns
    ``(best_x, best_value, evaluations, value_trace)``.
    """
    if budget < 1:
        raise InvalidArgument("budget must be >= 1")
    clip = clip or (lambda x: x)
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    evals = 0
    trace = []

    def f(x):
        nonlocal evals
        evals += 1
        val = objective(clip(x))
        trace.append(val)
        return val

    simplex = [clip(x0)]
    values = [f(simplex[0])]
    if budget == 1 or n == 0:
        return simplex[0], values[0], evals, trace
    for i in range(n):
        if evals >= budget:
            break
        xi = x0.copy()
        xi[i] += step
        simplex.append(clip(xi))
        values.append(f(simplex[-1]))

    while evals < budget and len(simplex) == n + 1:
        order = np.argsort(values)[::-1]  # maximizing: best first
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = clip(centroid + 1.0 * (centroid - worst))
        fr = f(reflected)
        if fr > values[0] and evals < budget:
            expanded = clip(centroid + 2.0 * (centroid - worst))
            fe = f(expanded)
            if fe > fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        if fr > values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if evals >= budget:
            break
        contracted = clip(centroid + 0.5 * (worst - centroid))
        fc = f(contracted)
        if fc > values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        # shrink toward the best point
        for i in range(1, n + 1):
            if evals >= budget:
                break
            simplex[i] = clip(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
            values[i] = f(simplex[i])
    best = int(np.argmax(values))
    return simplex[best], values[best], evals, trace


def maximize_ratio(inequality: str, domain: Domain, family: Field,
                   options: dict, budget: int = 100, seed: int = 0,
                   refine_levels: int = 0) -> TightnessResult:
    """Search the family's parameters for the largest report ratio.

    Degenerate (vacuously passing) reports score 0 so the search moves
    toward genuinely active test functions.  With ``refine_levels > 0`` the
    best member is re-evaluated on that many nested refinements.
    """
    if budget < 1:
        raise InvalidArgument("budget must be >= 1")
    # a family failing the boundary hypothesis would score 0 everywhere
    require_vanishing(inequality, domain, family)

    rng = np.random.default_rng(seed)
    step = FAMILIES[family.kind].step
    x0 = np.asarray(family.dof, dtype=float)
    if budget > 1:
        x0 = x0 + 0.05 * step * rng.standard_normal(len(x0))

    # the report of each distinct member (None when a precondition rejects
    # it): Nelder-Mead revisits points, and the best one is judged by its
    # report's slack, as a single report is
    reports = {}

    def vacuous(rep):
        return rep.degenerate or not np.isfinite(rep.ratio)

    def score(rep):
        return 0.0 if rep is None or vacuous(rep) else rep.ratio

    def objective(dof):
        fld = family.with_dof(dof)
        if fld.dof not in reports:
            try:
                reports[fld.dof] = evaluate(inequality, domain, fld, options)
            except PreconditionViolated:
                reports[fld.dof] = None
        return score(reports[fld.dof])

    best_x, best_val, evals, trace = nelder_mead(
        objective, x0, step, budget,
        clip=lambda x: _clip_dof(family.kind, x))

    best_field = family.with_dof(best_x)
    refinement = [(0, best_val)] + [
        (level, evaluate(inequality, dom, best_field, options).ratio)
        for level, dom in refinements(domain, refine_levels) if level]
    best = reports.get(best_field.dof)
    return TightnessResult(
        inequality=inequality, best_ratio=best_val,
        argmax_dof=tuple(float(v) for v in best_x), evaluations=evals,
        refinement_trace=refinement, seed=seed, trace=trace,
        slack=(best.slack if best is not None
               else options.get("slack", DEFAULT_SLACK_FLOOR)),
        quadrature_error=best.quadrature_error if best is not None else 0.0,
        distinct_evaluations=len(reports),
        rejected=sum(rep is None for rep in reports.values()),
        degenerate=sum(rep is not None and vacuous(rep)
                       for rep in reports.values()))
