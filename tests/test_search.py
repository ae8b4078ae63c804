import numpy as np
import pytest

from cknlab.errors import InvalidArgument, PreconditionViolated
from cknlab.geometry.fields import make_field
from cknlab.inequalities import evaluate
from cknlab.search import maximize_ratio, nelder_mead
from geometry_checks import observed_order, refinement_study

# regression anchor for the seeded interpolation search on the flat ball;
# pinned from the first verified run of this configuration
NASH_BALL_BEST_RATIO = 0.06591356017246422

HARDY_CONE_OPTIONS = {"p": 1.0, "gamma": 1.0}


def test_budget_one_echoes_seed_member(disk_domain):
    family = make_field("radial_power", (2.0,))
    result = maximize_ratio("hardy", disk_domain, family, HARDY_CONE_OPTIONS,
                            budget=1, seed=5)
    direct = evaluate("hardy", disk_domain, family, HARDY_CONE_OPTIONS)
    assert result.evaluations == 1
    assert result.best_ratio == direct.ratio
    assert result.argmax_dof == family.dof


def test_search_is_deterministic(disk_domain_coarse):
    family = make_field("radial_power", (2.5,))
    runs = [maximize_ratio("hardy", disk_domain_coarse, family,
                           HARDY_CONE_OPTIONS, budget=40, seed=11)
            for _ in range(2)]
    assert runs[0].to_dict() == runs[1].to_dict()


def test_cone_equality_rediscovered(disk_domain):
    family = make_field("radial_power", (3.0,))
    result = maximize_ratio("hardy", disk_domain, family, HARDY_CONE_OPTIONS,
                            budget=100, seed=0)
    assert result.best_ratio >= 0.99
    assert result.best_ratio <= 1.0 + 5e-2
    assert result.evaluations <= 100


def test_nash_search_regression(ball_domain_euclid):
    family = make_field("radial_bump", (1.0,))
    result = maximize_ratio("nash", ball_domain_euclid, family, {},
                            budget=60, seed=3)
    assert result.best_ratio <= 1.0
    assert result.best_ratio == pytest.approx(NASH_BALL_BEST_RATIO, rel=1e-6)


def test_search_rejects_inadmissible_family(disk_domain):
    family = make_field("radial_power", (1.5,), boundary_vanishing=False)
    with pytest.raises(PreconditionViolated):
        maximize_ratio("sobolev_hs", disk_domain, family, {"p": 1.0})


def test_search_refinement_trace(disk_domain_coarse):
    family = make_field("radial_power", (1.5,))
    result = maximize_ratio("hardy", disk_domain_coarse, family,
                            HARDY_CONE_OPTIONS, budget=10, seed=0,
                            refine_levels=1)
    assert len(result.refinement_trace) == 2
    assert result.refinement_trace[0][0] == 0
    assert result.refinement_trace[1][0] == 1


def test_nelder_mead_on_quadratic():
    target = np.array([0.7, -0.3])

    def objective(x):
        return -np.sum((x - target) ** 2)

    best, val, evals, trace = nelder_mead(objective, np.zeros(2), 0.5, 200)
    assert np.allclose(best, target, atol=1e-3)
    assert evals <= 200
    assert len(trace) == evals


def test_nelder_mead_budget_validation():
    with pytest.raises(InvalidArgument):
        nelder_mead(lambda x: 0.0, np.zeros(1), 0.1, 0)


def test_refinement_study_levels_validation(disk_domain_coarse):
    with pytest.raises(InvalidArgument):
        refinement_study("hardy", disk_domain_coarse,
                         make_field("radial_power", (1.0,)),
                         HARDY_CONE_OPTIONS, levels=-1)


def test_observed_order_recovers_slope():
    errs = [0.4 / 2 ** (1.7 * i) for i in range(4)]
    assert observed_order(errs) == pytest.approx(1.7, abs=1e-6)


@pytest.mark.parametrize("inequality,options,kind", [
    ("hardy", {"p": 2.0, "gamma": -1.0}, "polynomial"),
    ("sobolev_hs", {"p": 1.3}, "radial_bump"),
    ("weighted_sobolev", {"p": 1.2, "alpha": 0.4}, "radial_power"),
])
def test_search_never_escapes_slack(disk_domain_coarse, inequality, options,
                                    kind):
    vanishing = inequality != "hardy"
    family = make_field(kind, boundary_vanishing=vanishing)
    result = maximize_ratio(inequality, disk_domain_coarse, family, options,
                            budget=60, seed=2)
    assert result.best_ratio <= 1.0 + 5e-2


# -- each distinct point is evaluated once; the counters say what scored 0

def test_memo_matches_an_unmemoized_objective(disk_domain_coarse,
                                              monkeypatch):
    import cknlab.search as search
    family = make_field("radial_power", (2.5,))
    calls, run = [], {}
    real_evaluate, real_nm = search.evaluate, search.nelder_mead

    def counting_evaluate(*args):
        calls.append(args[2].dof)
        return real_evaluate(*args)

    def recording_nm(objective, x0, step, budget, clip=None):
        run.update(x0=x0, step=step, clip=clip, points=[])

        def recorded(x):
            run["points"].append(tuple(float(v) for v in x))
            return objective(x)

        return real_nm(recorded, x0, step, budget, clip)

    monkeypatch.setattr(search, "evaluate", counting_evaluate)
    monkeypatch.setattr(search, "nelder_mead", recording_nm)
    result = maximize_ratio("hardy", disk_domain_coarse, family,
                            HARDY_CONE_OPTIONS, budget=40, seed=11)

    def reference(dof):
        rep = real_evaluate("hardy", disk_domain_coarse,
                            family.with_dof(dof), HARDY_CONE_OPTIONS)
        return 0.0 if rep.degenerate else rep.ratio

    best_x, best, evals, trace = real_nm(reference, run["x0"], run["step"],
                                         40, run["clip"])
    assert result.trace == trace
    assert result.best_ratio == best
    assert result.argmax_dof == tuple(best_x)
    assert result.evaluations == evals == 40
    distinct = set(run["points"])
    assert len(distinct) < 40          # the radial family revisits points
    assert result.distinct_evaluations == len(distinct) == len(calls)
    assert set(calls) == distinct
    assert (result.rejected, result.degenerate) == (0, 0)
    best_report = real_evaluate("hardy", disk_domain_coarse,
                                family.with_dof(best_x), HARDY_CONE_OPTIONS)
    assert result.slack == best_report.slack
    assert result.quadrature_error == best_report.quadrature_error


def test_rejected_and_degenerate_members_are_counted(disk_domain_coarse):
    options = {"p": 2.0, "gamma": 0.5}
    zero = make_field("polynomial", (0.0,) * 6, boundary_vanishing=False)
    negative = make_field("polynomial", (-1.0, 0, 0, 0, 0, 0),
                          boundary_vanishing=False)
    for family, counts in ((zero, (0, 1)), (negative, (1, 0))):
        result = maximize_ratio("hardy_signed", disk_domain_coarse, family,
                                options, budget=1)
        assert result.best_ratio == 0.0
        assert result.distinct_evaluations == 1
        assert (result.rejected, result.degenerate) == counts
        record = result.to_dict()
        assert (record["rejected"], record["degenerate"]) == counts
        assert record["distinct_evaluations"] == 1
        assert record["quadrature_error"] == 0.0
