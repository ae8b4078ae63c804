import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.errors import DomainTooShort, InvalidArgument, OutOfRange
from cknlab.warp import CurvatureProfile, load_profile, solve_warping


def test_flat_profile_closed_form():
    w = solve_warping(CurvatureProfile.constant(0.0), 10.0)
    assert w.h(3.0) == 3.0
    assert w.h_prime(7.5) == 1.0
    assert math.isinf(w.increasing_limit)
    assert math.isinf(w.height_sup)


def test_constant_curvature_closed_form():
    w = solve_warping(CurvatureProfile.constant(4.0), 10.0)
    ts = np.linspace(0.0, 0.7, 50)
    assert np.allclose(w.h(ts), np.sin(2 * ts) / 2.0, atol=1e-15)
    assert w.increasing_limit == pytest.approx(math.pi / 4, abs=1e-15)
    assert w.height_sup == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_ode_path_matches_trig(b):
    r_max = 0.9 * math.pi / (2 * b)
    w = solve_warping(CurvatureProfile.constant(b * b), r_max, step=1e-4,
                      force_ode=True)
    ts = np.linspace(0.0, r_max, 400)
    assert np.max(np.abs(w.h(ts) - np.sin(b * ts) / b)) < 1e-8
    assert np.max(np.abs(w.h_prime(ts) - np.cos(b * ts))) < 1e-8


def test_tabulated_matches_trig():
    profile = CurvatureProfile.tabulated([(0.0, 1.0), (2.0, 1.0)])
    w = solve_warping(profile, 1.5, step=1e-4)
    ts = np.linspace(0.0, 1.5, 333)
    assert np.max(np.abs(w.h(ts) - np.sin(ts))) < 1e-8
    assert w.ode_error < 1e-10


def test_increasing_limit_detected_on_grid():
    profile = CurvatureProfile.tabulated([(0.0, 4.0), (3.0, 4.0)])
    w = solve_warping(profile, 1.2, step=1e-3)
    assert w.increasing_limit == pytest.approx(math.pi / 4, abs=1e-9)
    assert w.height_sup == pytest.approx(0.5, abs=1e-9)


def test_slope_monotone_and_below_flat():
    profile = CurvatureProfile.tabulated(
        [(0.0, 0.3), (0.5, 1.7), (1.0, 0.1), (3.0, 2.0)])
    w = solve_warping(profile, 2.0, step=1e-3)
    ts = np.linspace(0.0, min(2.0, w.increasing_limit * 0.999), 200)
    hp = w.h_prime(ts)
    assert np.all(np.diff(hp) <= 1e-12)
    assert np.all(hp <= 1.0 + 1e-12)
    assert np.all(w.h(ts) <= ts + 1e-12)


def test_inverse_closed_forms():
    flat = solve_warping(CurvatureProfile.constant(0.0), 10.0)
    assert flat.inverse(3.0) == 3.0
    trig = solve_warping(CurvatureProfile.constant(4.0), 10.0)
    assert trig.inverse(0.25) == pytest.approx(math.pi / 12, abs=1e-14)


def test_inverse_roundtrip_tabulated():
    profile = CurvatureProfile.tabulated([(0.0, 1.0), (2.0, 1.0)])
    w = solve_warping(profile, 1.4, step=1e-3)
    for t in (0.1, 0.35, 0.7, 1.2):
        assert abs(w.inverse(w.h(t)) - t) < 1e-9


def test_inverse_out_of_range():
    trig = solve_warping(CurvatureProfile.constant(4.0), 10.0)
    with pytest.raises(OutOfRange):
        trig.inverse(0.5)  # equals the supremum
    with pytest.raises(OutOfRange):
        trig.inverse(-0.1)


def test_argument_validation():
    with pytest.raises(InvalidArgument):
        solve_warping(CurvatureProfile.constant(1.0), -1.0)
    with pytest.raises(InvalidArgument):
        solve_warping(CurvatureProfile.constant(1.0), 1.0, step=0.0)
    with pytest.raises(InvalidArgument):
        CurvatureProfile.constant(-1.0)
    with pytest.raises(InvalidArgument):
        CurvatureProfile.tabulated([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(InvalidArgument):
        CurvatureProfile.tabulated([(0.5, 1.0), (1.0, 2.0)])
    with pytest.raises(DomainTooShort):
        solve_warping(CurvatureProfile.tabulated([(0.0, 1.0), (1.0, 1.0)]), 2.0)


def test_profile_file_loading(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# curvature profile\n0 1.0\n0.5 0.8  # midpoint\n2 0.2\n")
    profile = load_profile(path)
    assert profile.kind == "tabulated"
    assert profile(0.5) == pytest.approx(0.8)
    assert profile(1.25) == pytest.approx(0.5)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=3,
                max_size=6))
def test_slope_never_increases_for_random_profiles(values):
    radii = np.linspace(0.0, 1.5, len(values))
    profile = CurvatureProfile.tabulated(list(zip(radii, values)))
    w = solve_warping(profile, 1.5, step=2e-3)
    ts = np.linspace(0.0, 1.5, 120)
    hp = w.h_prime(ts)
    assert np.all(np.diff(hp) <= 1e-10)
