import math
import weakref

import numpy as np
import pytest

from cknlab.geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    flat_disk_patch,
    geodesic_disk,
    sphere_mesh,
    sphere_patch,
)
from cknlab.warp import CurvatureProfile, solve_warping


@pytest.fixture(scope="session")
def euclid3():
    return AmbientSpace.euclidean(3)


@pytest.fixture(scope="session")
def warped3():
    warp = solve_warping(CurvatureProfile.constant(1.0), 1.55)
    return AmbientSpace.warped(3, warp)


@pytest.fixture(scope="session")
def disk_domain(euclid3):
    return Domain(disk_mesh(1.0, rings=16), euclid3)


@pytest.fixture(scope="session")
def disk_domain_coarse(euclid3):
    return Domain(disk_mesh(1.0, rings=8), euclid3)


@pytest.fixture(scope="session")
def tilted_disk_domain(euclid3):
    return Domain(disk_mesh(1.0, rings=8, center=(0.0, 0.0, 0.5)), euclid3)


@pytest.fixture(scope="session")
def sphere_domain(euclid3):
    return Domain(sphere_mesh(1.0, level=3), euclid3)


@pytest.fixture(scope="session")
def disk_patch_domain(euclid3):
    return Domain(flat_disk_patch(euclid3, 1.0, cells=(8, 16)))


@pytest.fixture(scope="session")
def cap_domain(euclid3):
    return Domain(sphere_patch(euclid3, 1.0, theta_range=(0.0, math.pi / 3),
                               cells=(6, 12)))


@pytest.fixture(scope="session")
def geodesic_domain(warped3):
    return Domain(geodesic_disk(warped3, 0.5, cells=(8, 16)))


@pytest.fixture(scope="session")
def ball_domain_euclid(euclid3):
    return Domain(ball_domain(euclid3, 1.0, cells=(4, 4, 8)))


@pytest.fixture
def bindings(monkeypatch):
    """Weak references to the field bindings made while the test runs."""
    from cknlab.geometry.fields import Field
    refs = []
    real = Field.bind

    def recording(self, domain):
        bound = real(self, domain)
        refs.append(weakref.ref(bound))
        return bound

    monkeypatch.setattr(Field, "bind", recording)
    return refs


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
