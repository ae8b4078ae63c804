"""Planar field bindings on meshes against their untabulated formulas.

A binding on a mesh computes the scaled coordinates, the boundary-vanishing
factor and the random_smooth basis once per site table (and once per mesh
for the vertices), and the cell-edge Gram, its barycentric gradients and
their columns once per mesh.  The reference below recomputes everything
from the points on every call, as the formulas read; the tabulated binding
must agree with it bit for bit, except for the cell gradients: the mesh
keeps ``gram^-1 e`` where the reference solves ``gram^-1 dv`` per binding,
so those agree to ``1e-13`` relative to the largest, or to 64 subnormal
spacings where every gradient is subnormal.  A binding's gradient norms
equal the norms of the mesh's ``reconstruct_gradients`` bit for bit.
"""

import gc
import math
import sys
import threading
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import inequalities as iq
from cknlab.geometry import (AmbientSpace, Domain, disk_mesh, graph_mesh,
                             sphere_mesh)
from cknlab.geometry.domain import SiteBatch
from cknlab.geometry.fields import FAMILIES, make_field

PLANAR = ("polynomial", "random_smooth")


# -- reference: every column recomputed from the points ---------------------

def ref_planar_value(kind, c, P, scale):
    x = P[:, 0] / scale
    y = P[:, 1] / scale if P.shape[1] > 1 else np.zeros_like(x)
    if kind == "polynomial":
        return (c[0] + c[1] * x + c[2] * y + c[3] * x * x
                + c[4] * x * y + c[5] * y * y)
    sx, cy_ = np.sin(math.pi * x), np.cos(math.pi * y)
    sy = np.sin(math.pi * y)
    return c[0] + c[1] * sx + c[2] * cy_ + c[3] * sx * sy + c[4] * x + c[5] * y * y


def ref_clamp(meta, pts):
    gen = meta["generator"]
    if gen == "disk":
        center = np.asarray(meta["center"], dtype=float)
        axes = np.asarray(meta["axes"], dtype=float)
        plane = (pts - center) @ axes.T
        rho2 = np.einsum("vi,vi->v", plane, plane)
        return np.maximum(1.0 - rho2 / meta["radius"] ** 2, 0.0)
    assert gen == "graph"
    L = meta["half_width"]
    cx, cy = meta.get("center_xy", (0.0, 0.0))
    x = (pts[:, 0] - cx) / L
    y = (pts[:, 1] - cy) / L
    return np.maximum((1.0 - x ** 2) * (1.0 - y ** 2), 0.0)


def ref_value(domain, field, pts):
    scale = max(float(np.max(np.abs(domain.mesh.vertices))), 1e-12)
    vals = ref_planar_value(field.kind, field.dof, pts, scale)
    if field.boundary_vanishing and domain.has_boundary:
        vals = vals * ref_clamp(domain.metadata, pts)
    return vals


def _close(a, b, rel=1e-13):
    # the floor lies below rel times the smallest normal number, so it
    # forgives only subnormal roundoff
    floor = 64 * np.finfo(float).smallest_subnormal
    return np.max(np.abs(a - b), initial=0.0) <= max(
        rel * np.max(np.abs(b), initial=0.0), floor)


def ref_vertex_samples(domain, field):
    """Vertex values and per-cell gradients, edges and Gram rebuilt."""
    mesh = domain.mesh
    vals = ref_value(domain, field, mesh.vertices)
    if field.boundary_vanishing and len(mesh.boundary_facets):
        vals = vals.copy()
        vals[np.unique(mesh.boundary_facets)] = 0.0
    v = mesh.vertices[mesh.cells]
    e = v[:, 1:, :] - v[:, :1, :]
    gram = np.einsum("cin,cjn->cij", e, e)
    dv = vals[mesh.cells[:, 1:]] - vals[mesh.cells[:, :1]]
    coef = np.linalg.solve(gram, dv[..., None])[..., 0]
    return vals, np.einsum("ci,cin->cn", coef, e)


# -- domains ------------------------------------------------------------------

def _graph_height(x, y):
    return 0.25 * x * x - 0.15 * y * y + 0.1 * x * y


MESHES = {
    "disk_pole": lambda: disk_mesh(1.0, rings=5),
    "disk_offset": lambda: disk_mesh(0.8, rings=4, center=(0.3, -0.2, 0.4)),
    "graph": lambda: graph_mesh(_graph_height, half_width=1.0, divisions=4),
    "sphere": lambda: sphere_mesh(1.0, level=2),
}


@lru_cache(maxsize=None)
def mesh_domain(name):
    return Domain(MESHES[name](), AmbientSpace.euclidean(3))


def _tables(domain):
    """Band 0's and band 1's tables but the nested lo tables, which read
    their hi tables' field values."""
    return tuple(t for t in domain.sites(0.0) + domain.sites(1.0)
                 if t.nested is None)


def _dof(kind):
    return st.tuples(*[st.floats(lo, hi) for lo, hi in FAMILIES[kind].bounds])


@pytest.mark.parametrize("vanishing", [True, False])
@pytest.mark.parametrize("name", ["disk_pole", "disk_offset", "graph",
                                  "sphere"])
@pytest.mark.parametrize("kind", PLANAR)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_mesh_binding_matches_untabulated_formulas(kind, name, vanishing,
                                                   data):
    _check_binding(name, make_field(kind, data.draw(_dof(kind)),
                                    boundary_vanishing=vanishing))


@pytest.mark.parametrize("vanishing", [True, False])
@pytest.mark.parametrize("name", ["disk_pole", "disk_offset", "graph",
                                  "sphere"])
def test_mesh_binding_matches_at_subnormal_gradients(name, vanishing):
    # the two gradient computations differ by a few subnormal spacings here
    _check_binding(name, make_field("polynomial", (0.0,) * 5 + (2.2e-313,),
                                    boundary_vanishing=vanishing))


def _check_binding(name, field):
    domain = mesh_domain(name)
    vanishing = field.boundary_vanishing
    bound = field.bind(domain)
    vals, grads = ref_vertex_samples(domain, field)
    assert np.array_equal(bound.vertex_values, vals)
    # the mesh keeps gram^-1 e, the reference solves for gram^-1 dv: the
    # same gradients in another order of operations
    cell_gradients = domain.mesh.reconstruct_gradients(vals)
    assert _close(cell_gradients, grads)
    norm = np.linalg.norm(cell_gradients, axis=1)
    assert np.array_equal(bound.cell_grad_norm, norm)
    for table in _tables(domain):
        psi_ref = ref_value(domain, field, table.points)
        for _ in range(2):  # first use fills the table's columns
            psi, grad = bound.at_sites(table)
            assert np.array_equal(psi, 1.0 * psi_ref)
            assert np.array_equal(grad, 1.0 * norm[table.cell_ids])
    table = domain.boundary_sites()[0]   # the lo table reads its values
    if table is not None:
        # the field itself at the boundary sites, as at the interior ones
        psi = ref_value(domain, field, table.points)
        if vanishing:
            psi = np.zeros_like(psi)
        assert np.array_equal(bound.at_boundary(table), 1.0 * psi)


@pytest.mark.parametrize("name", ["disk_pole", "graph", "sphere"])
def test_barycentric_gradients_solved_once_per_mesh(monkeypatch, name):
    members = [make_field(PLANAR[s % 2], seed=s, boundary_vanishing=s % 3 > 0)
               for s in range(20)]
    # the per-binding formula, solve(gram, dv), on a twin of the mesh
    refs = [ref_vertex_samples(mesh_domain(name), f)[1] for f in members]
    solves = []
    real = np.linalg.solve

    def counting(*args):
        solves.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    domain = Domain(MESHES[name](), AmbientSpace.euclidean(3))
    for field, ref in zip(members, refs):
        assert _close(field.bind(domain).cell_grad_norm,
                      np.linalg.norm(ref, axis=1))
    domain.boundary_sites()   # the conormals read the same gradients
    assert len(solves) == 1


def test_kept_columns_do_not_depend_on_the_member(euclid3, bindings):
    domain = Domain(disk_mesh(1.0, rings=4), euclid3)
    options = {"p": 1.0, "gamma": 1.0}
    iq.evaluate("hardy", domain, make_field("random_smooth", seed=1), options)
    # band 1's views of band 0's tables read band 0's values: the field is
    # never evaluated on them, so they keep nothing; its pole tables are the
    # domain's pole pair
    band1 = domain.sites(1.0)
    assert all(not view.kept for view in band1[:2])
    assert all(a is b for a, b in zip(band1[4:], domain._tables["pole"]))
    tables = domain.sites(0.0) + band1[2:4] + domain._tables["pole"]
    kept = [dict(t.kept) for t in tables] + [dict(domain.mesh.kept)]
    # the mesh lo tables read their hi tables' values (nested): nothing kept
    assert [bool(k) for k in kept[:-1]] == [True, False, True, False,
                                            True, True]
    assert all(set(k) == {"xy", "mixture", "clamp"} for k in kept[:-1] if k)
    assert set(kept[-1]) == {"edge_gram", "cell_frames",
                             "vertex_mean_curvature", "barycentric_gradients",
                             "cell_columns", "xy", "mixture", "clamp"}
    iq.evaluate("hardy", domain, make_field("random_smooth", seed=2), options)
    iq.evaluate("hardy", domain, make_field("polynomial"), options)
    after = [t.kept for t in tables] + [domain.mesh.kept]
    for old, new in zip(kept, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())
    # field values end with the evaluation's one binding
    assert len(bindings) == 3
    assert [ref() for ref in bindings] == [None] * 3


def test_kept_columns_pin_nothing(euclid3):
    domain = Domain(disk_mesh(1.0, rings=4), euclid3)
    iq.evaluate("hardy", domain, make_field("random_smooth", seed=1),
                {"p": 1.0, "gamma": 1.0})
    table = domain.sites(1.0)[2]   # band 1's graded pieces, hi rule
    refs = [weakref.ref(table), weakref.ref(table.kept["clamp"]),
            weakref.ref(domain.mesh), weakref.ref(domain.mesh.kept["clamp"])]
    del domain, table
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_weights_computed_once_per_evaluation(euclid3, monkeypatch,
                                               bindings):
    domain = Domain(disk_mesh(1.0, rings=4), euclid3)
    calls = []
    real = SiteBatch.weight

    def counting(self, gamma, use_hprime):
        calls.append((gamma, use_hprime))
        return real(self, gamma, use_hprime)

    monkeypatch.setattr(SiteBatch, "weight", counting)
    # the two left-side integrals share gamma = 1 with h' (on the band's
    # views of band 0's pair, its graded pair and the pole's pair): one
    # weight per table, kept in its slot for the next evaluation.  The two
    # right-side ones (gamma - p = 0 without h') and the boundary term
    # (gamma - 1 = 0) take the density itself
    for member, expected in (("polynomial", [(1.0, True)] * 6),
                             ("random_smooth", [])):
        calls.clear()
        iq.evaluate("hardy", domain, make_field(member),
                    {"p": 1.0, "gamma": 1.0})
        assert calls == expected
        assert [ref() for ref in bindings] == [None] * len(bindings)


def test_threads_binding_members_on_one_mesh_match_serial(euclid3):
    members = [make_field("random_smooth", seed=s) for s in range(4)]

    def values(domain, field):
        bound = domain.bind(field)
        return ([bound.vertex_values, bound.cell_grad_norm]
                + [a for t in _tables(domain) for a in bound.at_sites(t)])

    serial = [values(Domain(disk_mesh(1.0, rings=5), euclid3), f)
              for f in members]
    shared = Domain(disk_mesh(1.0, rings=5), euclid3)
    _tables(shared)
    barrier = threading.Barrier(len(members))
    results = [[] for _ in members]

    def work(i):
        barrier.wait()
        for _ in range(3):
            results[i].append(values(shared, members[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(members))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, runs in enumerate(results):
        assert len(runs) == 3
        for run in runs:
            assert all(np.array_equal(a, b) for a, b in zip(run, serial[i]))
