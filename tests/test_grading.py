"""Graded site tables against a depth-first reference.

The reference below is the recursive grading the level-synchronous loops in
``cknlab.geometry.domain`` replace: one box or simplex at a time, its corners
evaluated on their own, children visited depth first.  The loops must
produce the same pieces in the same order, so the site tables agree bit for
bit.  Above band 0 the cells with a corner at the pole (a polar chart's ring,
the chart boxes and mesh cells around a vertex pole) are integrated by their
own rule, so the reference grades only the other cells, and the band's
tables hold exactly theirs.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from cknlab.corpus import build_corpus, corpus_geometries
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    graph_mesh,
    plane_rect,
    sphere_mesh,
    sphere_patch,
    weighted_integral,
)
from cknlab.geometry import domain as domain_mod
from cknlab.inequalities import evaluate
from cknlab.quadrature import box_rule, simplex_rule, split_simplex_bary

VAR_TOL = domain_mod._VAR_TOL
TABLE_FIELDS = ("points", "density", "r")


# -- reference: the recursive grading -----------------------------------------

def ref_variation(domain, corner_r, band):
    if band == 0:
        return 1.0
    h, _ = domain.ambient.h_values(np.asarray(corner_r))
    hmin, hmax = float(np.min(h)), float(np.max(h))
    if hmin <= 0.0:
        return math.inf
    return (hmax / hmin) ** band


def box_corners(lo, hi):
    k = len(lo)
    pts = np.zeros((2 ** k, k))
    for mask in range(2 ** k):
        for d in range(k):
            pts[mask, d] = hi[d] if mask >> d & 1 else lo[d]
    return pts


def box_variation(domain, lo, hi, band):
    rr = domain.ambient.radius(domain.patch.jet(box_corners(lo, hi))[0])
    return ref_variation(domain, rr, band)


def ref_grade_box(domain, lo, hi, band):
    out = []
    seen = {}

    def variation(lo, hi):
        # every accepted child is scored before it is visited; its corners
        # give the same variation both times, so one evaluation serves both
        key = (lo.tobytes(), hi.tobytes())
        if key not in seen:
            seen[key] = box_variation(domain, lo, hi, band)
        return seen[key]

    def children_of(lo, hi, axis):
        mid = 0.5 * (lo[axis] + hi[axis])
        alo, ahi = lo.copy(), hi.copy()
        blo, bhi = lo.copy(), hi.copy()
        ahi[axis] = mid
        blo[axis] = mid
        return (alo, ahi), (blo, bhi)

    def rec(lo, hi):
        if variation(lo, hi) <= VAR_TOL:
            out.append((lo, hi))
            return
        best = None
        for axis in range(len(lo)):
            pair = children_of(lo, hi, axis)
            worst = max(variation(clo, chi) for clo, chi in pair)
            score = (worst, -(hi[axis] - lo[axis]))
            if best is None or score < best[0]:
                best = (score, pair)
        for clo, chi in best[1]:
            rec(clo, chi)

    rec(np.asarray(lo, float), np.asarray(hi, float))
    return out


def box_at_pole(domain, lo, hi):
    """Whether a corner of the box lies at the pole."""
    r = domain.ambient.radius(domain.patch.jet(box_corners(lo, hi))[0])
    return bool(np.any(r == 0.0))


def ref_patch_pieces(domain, band):
    regular, graded = [], []
    for lo, hi in zip(*domain.patch.cell_boxes()):
        if band and box_at_pole(domain, lo, hi):
            continue
        if box_variation(domain, lo, hi, band) <= VAR_TOL:
            regular.append((lo, hi))
        else:
            graded.append((lo, hi))
    pieces = list(regular)
    for lo, hi in graded:
        pieces.extend(ref_grade_box(domain, lo, hi, band))
    return pieces


def ref_patch_sites(domain, band):
    pieces = ref_patch_pieces(domain, band)
    out = []
    for npts in (domain.order, domain.order - 1):
        nodes, wts = box_rule(domain.k, npts)
        U, dens = [], []
        for lo, hi in pieces:
            width = hi - lo
            U.append(lo + nodes * width)
            dens.append(wts * np.prod(width))
        out.append(domain._patch_batch(np.concatenate(U),
                                       np.concatenate(dens)))
    return pieces, out


def ref_simplex_volume(corners):
    edges = corners[1:] - corners[0]
    det = np.linalg.det(edges @ edges.T)
    return math.sqrt(max(det, 0.0)) / math.factorial(len(corners) - 1)


def ref_grade_simplex(domain, corners, band):
    out = []
    children = split_simplex_bary(domain.k)

    def rec(mb):
        rr = domain.ambient.radius(mb @ corners)
        if ref_variation(domain, rr, band) <= VAR_TOL:
            out.append(mb)
            return
        for child in children:
            rec(child @ mb)

    rec(np.eye(domain.k + 1))
    return out


def ref_mesh_sites(domain, band):
    mesh, k, n = domain.mesh, domain.k, domain.n
    corners_all = mesh.vertices[mesh.cells]
    r_corners = domain.ambient.radius(corners_all.reshape(-1, n)).reshape(
        len(mesh.cells), k + 1)
    regular, graded = [], []
    for cid in range(len(mesh.cells)):
        if band and np.any(r_corners[cid] == 0.0):
            continue
        if ref_variation(domain, r_corners[cid], band) <= VAR_TOL:
            regular.append(cid)
        else:
            graded.append(cid)
    pieces = [(cid, mb) for cid in graded
              for mb in ref_grade_simplex(domain, corners_all[cid], band)]
    out = []
    for s_index in (2, 1):
        bary, wts = simplex_rule(k, s_index)
        batches = []
        if regular:
            reg = np.asarray(regular)
            pts = np.einsum("qb,cbn->cqn", bary, corners_all[reg])
            dens = domain._volumes[reg][:, None] * wts[None, :]
            batches.append(domain._mesh_batch(
                reg.repeat(len(wts)),
                np.broadcast_to(bary, (len(reg),) + bary.shape).reshape(
                    -1, k + 1),
                pts.reshape(-1, n), dens.reshape(-1)))
        for cid in graded:
            loc, amb_pts, dens = [], [], []
            for owner, mb in pieces:
                if owner != cid:
                    continue
                comp = bary @ mb
                loc.append(comp)
                amb_pts.append(comp @ corners_all[cid])
                dens.append(ref_simplex_volume(mb @ corners_all[cid]) * wts)
            loc = np.concatenate(loc)
            batches.append(domain._mesh_batch(
                np.full(len(loc), cid), loc, np.concatenate(amb_pts),
                np.concatenate(dens)))
        out.append(domain_mod._concat_batches(batches))
    return regular, pieces, out


# -- comparisons ----------------------------------------------------------------

def assert_same_pieces(domain, band):
    if domain.kind == "patch":
        ref, ref_tables = ref_patch_sites(domain, band)
        whole, lo, hi, stats = domain._patch_cells(band)
        cell_lo, cell_hi = domain.patch.cell_boxes()
        lo = np.concatenate([cell_lo[whole], lo])
        hi = np.concatenate([cell_hi[whole], hi])
        assert np.array_equal(lo, np.array([p[0] for p in ref]))
        assert np.array_equal(hi, np.array([p[1] for p in ref]))
    else:
        regular, ref, ref_tables = ref_mesh_sites(domain, band)
        corners = domain.mesh.vertices[domain.mesh.cells]
        got_regular, owner, mb, stats = domain._mesh_pieces(corners, band)
        assert np.array_equal(got_regular, regular)
        assert np.array_equal(owner, [cid for cid, _ in ref])
        assert np.array_equal(mb.reshape(-1, domain.k + 1),
                              np.array([m for _, m in ref]).reshape(
                                  -1, domain.k + 1))
        ref = list(regular) + ref
    assert stats.pieces == len(ref)
    # the band's tables, asked for at -band: the gamma >= k check lets it by
    for got, want in zip(domain.sites(-band), ref_tables):
        for name in TABLE_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


CORPUS = corpus_geometries()
BANDS = (0, 1, 2, 3, 4, 6)
CORPUS_BANDS = [(name, band) for name in CORPUS for band in BANDS]


@pytest.fixture(scope="module")
def corpus_domains():
    return {}


@pytest.mark.parametrize("name,band", CORPUS_BANDS)
def test_corpus_tables_match_reference(corpus_domains, name, band):
    if name not in corpus_domains:
        corpus_domains[name] = CORPUS[name]()
    assert_same_pieces(corpus_domains[name], band)


@pytest.mark.parametrize("band", [b for b in BANDS if b > 2])
@pytest.mark.parametrize("ambient", ["euclidean", "warped"])
def test_coarse_balls_match_reference(warped3, ambient, band):
    if ambient == "euclidean":
        ball = ball_domain(AmbientSpace.euclidean(3), 1.0, cells=(2, 2, 4))
    else:
        ball = ball_domain(warped3, 0.5, cells=(2, 2, 4))
    assert_same_pieces(Domain(ball), band)


def test_mesh_with_pole_at_vertex_matches_reference():
    amb = AmbientSpace.euclidean(3)
    dom = Domain(disk_mesh(1.0, rings=4), amb)
    assert dom.through_pole
    assert_same_pieces(dom, 3)
    # the cells at the pole vertex left the table; the rest grades shallow
    assert 0 < dom.grading[3].max_depth <= 4


@pytest.mark.parametrize("kind", ["mesh", "patch"])
def test_no_graded_cell(kind):
    amb = AmbientSpace.euclidean(3, pole=(0.0, 0.0, -6.0))
    geometry = (sphere_mesh(1.0, level=2) if kind == "mesh"
                else sphere_patch(amb, 1.0, cells=(4, 8)))
    dom = Domain(geometry, amb)
    assert_same_pieces(dom, 2)
    stats = dom.grading[2]
    assert stats.max_depth == 0
    cells = (len(dom.mesh.cells) if kind == "mesh"
             else int(np.prod(dom.patch.cells_per_axis)))
    assert stats.pieces == cells


# -- grading counters -----------------------------------------------------------

def test_corpus_tables_grade_within_four_levels():
    # every band the seed-0 corpus builds, and two charts and a mesh with
    # the pole at a vertex: only the cells at the pole reach it, and they
    # take the pole rule instead
    amb = AmbientSpace.euclidean(3)
    domains = {name: build() for name, build in CORPUS.items()}
    vertex_poles = {
        "plane_rect": Domain(plane_rect(amb, 1.0, cells=8)),
        "flat_graph_mesh": Domain(graph_mesh(lambda x, y: 0.0 * x, 1.0, 8),
                                  amb),
    }
    for case in build_corpus(0):
        evaluate(case.inequality, domains[case.geometry], case.field,
                 case.options)
    for dom in vertex_poles.values():
        assert dom.through_pole
        for gamma in (-1.0, 0.5, 1.5, 1.95):
            weighted_integral(dom, 1.0, gamma)
    for name, dom in {**domains, **vertex_poles}.items():
        assert dom.grading, name
        for band, stats in dom.grading.items():
            assert stats.max_depth <= 4, (name, band)
    # the pole's cells left the band tables of the two vertex-pole corpus
    # geometries, which grade far fewer pieces than the chain into it did
    assert domains["disk_pole"].grading[3].pieces < 2000
    assert domains["graph_patch"].grading[3].pieces < 2000


def test_grading_counters_are_read_only(disk_patch_domain):
    disk_patch_domain.sites(1.0)
    with pytest.raises(TypeError):
        disk_patch_domain.grading[1] = None
    with pytest.raises(AttributeError):
        disk_patch_domain.grading[1].pieces = 0


# -- thread safety --------------------------------------------------------------

def test_racing_threads_build_a_band_once(monkeypatch):
    # a chart whose band-2 table grades the cells around those at the pole
    amb = AmbientSpace.euclidean(3)
    dom = Domain(plane_rect(amb, 1.0, cells=4))
    builds = []
    build = dom._build_patch_sites

    def counted(band):
        builds.append(band)
        time.sleep(0.05)  # hold the build open while the others ask
        return build(band)

    monkeypatch.setattr(dom, "_build_patch_sites", counted)
    workers = 4
    barrier = threading.Barrier(workers)
    results = []

    def worker():
        barrier.wait()
        results.append(dom.sites(1.5))

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [0, 2]
    assert dom.grading[2].max_depth > 0
    assert len(results) == workers
    assert all(hi is results[0][0] for hi, _ in results)
