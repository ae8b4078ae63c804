"""The boundary-vanishing clamps: one per generator with a boundary.

A planar member that must vanish on the boundary is multiplied by its
domain's clamp, a function of ambient points giving its value and ambient
gradient (``cknlab.geometry.fields.CLAMPS``).  Every built-in geometry that
can have a boundary needs one, so a new built-in without a clamp fails here.
The clamp must vanish at the boundary: at a patch's boundary sites and at a
mesh's boundary vertices.  On a chart it must agree, in value and in its
tangential gradient, with the same factor written in the chart coordinates
(``geometry_checks.chart_clamp``), whose partials divided by the chart
columns' lengths are the tangential gradient in the normalized chart basis.
"""

import math

import numpy as np
import pytest

from cknlab.cli import BUILTINS, build_domain, parse_domain
from cknlab.geometry.fields import _clamp
from cknlab.quadrature import box_rule
from geometry_checks import chart_clamp, chart_column_lengths

_CURVED = {"kind": "warped", "curvature": "1.0", "r_max": "1.55"}
# builtin -> (ambient section, geometry options) of each variant with a
# boundary; a closed sphere mesh has none
VARIANTS = {
    "sphere_patch_cap": ("sphere_patch", {}, {"theta1": "1.0"}),
    "sphere_patch_zone": ("sphere_patch", {},
                          {"radius": "1.3", "theta0": repr(math.pi / 6),
                           "theta1": repr(math.pi / 2)}),
    "geodesic_disk": ("geodesic_disk", _CURVED, {"radius": "0.5"}),
    "ball_warped": ("ball", _CURVED, {"radius": "0.5"}),
    "disk_mesh_tilted": ("disk_mesh", {},
                         {"radius": "0.8", "center": "0.3 0 0.7",
                          "axes": f"{math.cos(0.5)!r} 0 {math.sin(0.5)!r} "
                                  "0 1 0"}),
}
NAMES = sorted(set(BUILTINS) - {"sphere_mesh", "sphere_patch"}
               | set(VARIANTS))


def _domain(name):
    builtin, ambient, options = VARIANTS.get(name, (name, {}, {}))
    return build_domain(parse_domain(
        {"ambient": ambient or {"kind": "euclidean"},
         "geometry": {"builtin": builtin, **options}}))


def _chart_sites(domain):
    """Band 0's hi-rule chart points and their site table."""
    lo, hi = domain.patch.cell_boxes()
    nodes, _ = box_rule(domain.k, domain.order)
    U = (lo[:, None] + nodes * (hi - lo)[:, None]).reshape(-1, domain.k)
    return U, domain._patch_batch(U, np.ones(len(U)))[0]


@pytest.mark.parametrize("name", NAMES)
def test_every_builtin_with_a_boundary_has_a_clamp(name):
    domain = _domain(name)
    assert domain.has_boundary
    clamp = _clamp(domain)
    if domain.kind == "mesh":
        value, grad = clamp(domain.mesh.vertices[domain.boundary_vertices])
        assert np.max(value) <= 1e-12
        assert np.all(np.isfinite(grad))
        return
    for table in domain.boundary_sites():
        assert np.max(np.abs(clamp(table.points)[0])) <= 1e-12
    U, batch = _chart_sites(domain)
    value, grad = clamp(batch.points)
    want_value, want_grad = chart_clamp(domain.metadata)(U)
    assert np.min(want_value) > 0.0
    np.testing.assert_allclose(value, want_value, rtol=0, atol=1e-12)
    want = want_grad / chart_column_lengths(domain, U)
    np.testing.assert_allclose(np.einsum("sa,sai->si", grad, batch.dF), want,
                               rtol=0, atol=1e-12 * max(1.0, np.max(
                                   np.abs(want))))
