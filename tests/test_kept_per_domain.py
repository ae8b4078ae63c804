"""What a domain keeps for every member a search binds on it.

Each site table keeps the weighted densities of the last exponent asked for,
in one slot that a binding's copies share; a mesh keeps the columns of its
cells' barycentric gradients; the tables and the mesh keep the scaled planar
coordinates of their points; the domain keeps one pair of pole tables,
whose slots hold them weighted with their radial rule like any other table.
None of it may change a report, and neither the slots, the table cache nor
the rule caches may grow with the exponents a domain has seen.  The corpus
keeps at most one domain per worker alive.
"""

import functools
import json
import sys
import threading
import weakref
from dataclasses import fields

import numpy as np
import pytest

from cknlab import cli, corpus
from cknlab import inequalities as iq
from cknlab.geometry import (
    AmbientSpace,
    Domain,
    ball_domain,
    disk_mesh,
    weighted_integral,
)
from cknlab.geometry import domain as domain_mod
from cknlab.geometry.domain import SiteBatch
from cknlab.geometry.fields import FAMILIES, _scaled_xy, make_field
from cknlab.quadrature import jacobi_rule, product_rule

EUCLID = AmbientSpace.euclidean(3)
DOMAINS = {
    "disk_mesh": lambda: Domain(disk_mesh(1.0, rings=4), EUCLID),
    "ball": lambda: Domain(ball_domain(EUCLID, 1.0, cells=(2, 2, 4))),
}
COLUMNS = {f.name for f in fields(SiteBatch)}


def _domain_tables(domain):
    """Every site table the domain holds: interior, pole and boundary."""
    return [t for pair in domain._tables.values() for t in pair
            if t is not None]


def _count_weights(monkeypatch):
    calls = []
    real = SiteBatch.weight

    def counting(self, gamma, use_hprime):
        # the slot names the domain's table: its copies share it
        calls.append((self.weight_slot, gamma, use_hprime))
        return real(self, gamma, use_hprime)

    monkeypatch.setattr(SiteBatch, "weight", counting)
    return calls


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_tables_keep_one_weighted_density(name, bindings):
    domain = DOMAINS[name]()
    gammas = np.linspace(-0.9, 1.8, 10)
    kinds = tuple(FAMILIES)
    for i in range(50):
        field = make_field(kinds[i % len(kinds)], seed=i)
        iq.evaluate("hardy", domain, field,
                    {"p": 1.0, "gamma": float(gammas[i % len(gammas)])})
    assert [ref() for ref in bindings] == [None] * 50
    exponents = {float(g) + d for g in gammas for d in (0.0, -1.0)}
    for table in _domain_tables(domain):
        # the dataclass columns, the kept columns and the one slot
        assert set(vars(table)) == COLUMNS | {"kept", "weight_slot"}
        assert not any(key[0] == "weight" for key in table.kept
                       if isinstance(key, tuple))
        assert len(table.weight_slot) == 1
        key, weights = table.weight_slot[0]
        assert key is None or key[0] in exponents
        assert weights is None or len(weights) == len(table.density)


# each table, the pole's too, sees one exponent per evaluation
@pytest.mark.parametrize("options", [{"p": 1.0, "gamma": 1.0},
                                     {"p": 2.0, "gamma": 0.0},
                                     {"p": 1.5, "gamma": 0.0}])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_second_evaluation_weighs_nothing(name, options, monkeypatch):
    domain = DOMAINS[name]()
    calls = _count_weights(monkeypatch)
    iq.evaluate("hardy", domain, make_field("polynomial"), options)
    assert calls
    calls.clear()
    for field in (make_field("polynomial"), make_field("random_smooth")):
        iq.evaluate("hardy", domain, field, options)
    assert calls == []


def test_alternating_exponents_weigh_each_table_once(monkeypatch):
    # gamma = 0.5 with h' and gamma - p = -1 without both fall in band 1:
    # each evaluation weighs band 1's tables and the pole's once per
    # exponent, as it did before the tables kept a slot; the boundary's one
    # exponent stays in its tables' slots
    domain = DOMAINS["disk_mesh"]()
    calls = _count_weights(monkeypatch)
    options = {"p": 1.5, "gamma": 0.5}
    for seed in range(3):
        calls.clear()
        iq.evaluate("hardy", domain, make_field("random_smooth", seed=seed),
                    options)
        assert sorted((g, h) for _, g, h in calls) == sorted(
            [(-1.0, False)] * 6 + [(0.5, True)] * 6
            + [(-0.5, False)] * 2 * (seed == 0))
        assert not any(a[0] is b[0] and a[1:] == b[1:]
                       for i, a in enumerate(calls) for b in calls[:i])


def _count_pole_work(monkeypatch):
    """The pole pairs built and the radial weights solved, as appended."""
    builds, solves = [], []
    real_build, real_solve = Domain._pole_tables, domain_mod.product_weights

    def build(self):
        builds.append(self)
        return real_build(self)

    def solve(fit, alpha):
        solves.append(alpha)
        return real_solve(fit, alpha)

    monkeypatch.setattr(Domain, "_pole_tables", build)
    monkeypatch.setattr(domain_mod, "product_weights", solve)
    return builds, solves


def test_repeat_evaluation_builds_no_pole_table(monkeypatch):
    # p = 1.5, gamma = -0.5 reaches the pole at gamma (band 1) and at
    # gamma - p (band 2): the domain builds one pole pair, whose slots hold
    # one exponent, so each evaluation fits both exponents' radial weights
    domain = Domain(disk_mesh(1.0, rings=16), EUCLID)
    builds, solves = _count_pole_work(monkeypatch)
    field, options = make_field("polynomial"), {"p": 1.5, "gamma": -0.5}
    first = iq.evaluate("hardy", domain, field, options).to_dict()
    assert builds == [domain]
    # one solve per rule and exponent, alpha = k - 1 - gamma
    assert sorted(solves) == [1.5, 1.5, 3.0, 3.0]
    builds.clear(), solves.clear()
    second = iq.evaluate("hardy", domain, field, options).to_dict()
    assert builds == [] and sorted(solves) == [1.5, 1.5, 3.0, 3.0]
    assert (json.dumps(second, sort_keys=True)
            == json.dumps(first, sort_keys=True))
    # a third band weighs the same pair
    solves.clear()
    weighted_integral(domain, 1.0, -2.5)
    assert builds == [] and solves == [3.5, 3.5]
    assert all(t.weight_slot[0][0] == (-2.5, False)
               for t in domain._tables["pole"])


def test_repeat_sites_call_reads_the_weighted_pole_pair_alone(monkeypatch):
    # a binding that holds band 0's, the band's and the pole pair's copies
    # returns them as they are
    domain = DOMAINS["disk_mesh"]()
    bound = domain.bind(make_field("polynomial"))
    first = domain.sites(1.5, bound)
    keys, real = [], Domain._with_field

    def counting(self, tables, key, *args):
        keys.append(key)
        return real(self, tables, key, *args)

    monkeypatch.setattr(Domain, "_with_field", counting)
    again = domain.sites(1.5, bound)
    assert keys == [0, 2, "pole"]
    assert len(again) == len(first)
    assert all(a is b for a, b in zip(again, first))


def test_distinct_exponents_keep_the_caches_bounded():
    # 50 exponents over bands 1 to 3 take the one pole pair and no
    # Gauss-Jacobi or product rule beyond the pair's nodes
    domain = DOMAINS["ball"]()
    field = make_field("radial_power", (2.0,))
    sizes = []
    for gamma in np.linspace(0.05, 2.95, 50):
        weighted_integral(domain, lambda b: b.psi, float(gamma), field=field)
        sizes.append((jacobi_rule.cache_info().currsize,
                      product_rule.cache_info().currsize))
    assert sizes == sizes[:1] * 50


def test_distinct_exponents_key_nothing_by_exponent():
    # 50 exponents over bands 1 to 3, with h' and without: the table cache
    # holds the bands, the pole pair and the boundary, a binding read by
    # all of them holds its copies under the same keys, and no dict of the
    # domain has an exponent in a key
    domain = DOMAINS["ball"]()
    bound = domain.bind(make_field("radial_power", (2.0,)))
    gammas = [float(g) for g in np.linspace(0.05, 2.95, 50)]
    for i, gamma in enumerate(gammas):
        weighted_integral(domain, lambda b: b.psi, gamma,
                          ("h_power", "h_power_times_hprime")[i % 2],
                          field=bound)
    assert {1, 2, 3, "pole"} <= set(domain._tables) <= {0, 1, 2, 3, "pole",
                                                        "b"}
    assert set(bound.kept) == {0, 1, 2, 3, "pole"}
    for name, value in vars(domain).items():
        if isinstance(value, dict):
            parts = {part for key in value
                     for part in (key if isinstance(key, tuple) else (key,))}
            assert not parts & set(gammas), name


def test_seed0_corpus_builds_few_pole_pairs(monkeypatch):
    builds, _ = _count_pole_work(monkeypatch)
    reports = corpus.run_corpus(corpus.build_corpus(0))
    assert all(r.satisfied for r in reports)
    # one per domain with cells at the pole that reads a band above 0
    assert 0 < len(builds) <= 5
    assert len(set(map(id, builds))) == len(builds)


def test_threads_racing_on_the_pole_pairs_slot_match_serial(monkeypatch,
                                                            bindings):
    # exponents of both signs in bands 1 and 2 on one fresh ball: the
    # threads replace each other's weights in the slot the pole pair's
    # tables share with their copies
    gammas = (0.6, -0.6, 1.6, -1.6)
    fields_ = [make_field("radial_power", (1.5 + 0.5 * i,)) for i in range(4)]
    runs = [[(f, {"p": 1.0, "gamma": gammas[(i + j) % 4]})
             for j in range(4)] for i, f in enumerate(fields_)]

    def reports(domain, run):
        return [json.dumps(iq.evaluate("hardy", domain, f, o).to_dict(),
                           sort_keys=True) for f, o in run]

    serial = [reports(DOMAINS["ball"](), run) for run in runs]
    shared = DOMAINS["ball"]()
    builds, _ = _count_pole_work(monkeypatch)
    barrier = threading.Barrier(len(runs))
    results = [None] * len(runs)

    def work(i):
        barrier.wait()
        results[i] = [reports(shared, runs[i]) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [shared]
    for i, got in enumerate(results):
        assert got == [serial[i]] * 3
    assert [ref() for ref in bindings] == [None] * len(bindings)


def test_threads_sharing_a_domains_slots_match_serial(bindings):
    # exponents sharing band 1's tables, so the threads replace each
    # other's weights in the tables' slots
    runs = [(make_field(kind, seed=i), {"p": 1.0, "gamma": gamma})
            for i, (kind, gamma) in enumerate(
                [("polynomial", 0.3), ("random_smooth", 0.6),
                 ("radial_power", 0.9), ("radial_bump", 1.0)])]
    serial = [iq.evaluate("hardy", DOMAINS["disk_mesh"](), f, o).to_dict()
              for f, o in runs]
    shared = DOMAINS["disk_mesh"]()
    barrier = threading.Barrier(len(runs))
    results = [[] for _ in runs]

    def work(i):
        barrier.wait()
        for _ in range(4):
            results[i].append(iq.evaluate("hardy", shared, *runs[i]).to_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, reports in enumerate(results):
        assert reports == [serial[i]] * 4
    assert [ref() for ref in bindings] == [None] * len(bindings)


CORPUS_MESHES = ("disk_offset", "disk_pole", "disk_tilted", "graph_patch",
                 "sphere_offset", "sphere_pole")


@pytest.mark.parametrize("name", CORPUS_MESHES + ("disk_41",))
def test_cell_gradient_norms_match_the_reconstruction(name):
    domain = (Domain(disk_mesh(1.0, rings=41), EUCLID) if name == "disk_41"
              else corpus.corpus_geometries()[name]())
    assert domain.kind == "mesh"
    mesh = domain.mesh
    for seed, kind in enumerate(FAMILIES):
        bound = make_field(kind, seed=seed).bind(domain)
        ref = np.linalg.norm(mesh.reconstruct_gradients(bound.vertex_values),
                             axis=1)
        assert np.array_equal(bound.cell_grad_norm, ref)


@pytest.mark.parametrize("kind", ["polynomial", "random_smooth"])
def test_kept_planar_coordinates_match_the_points(kind):
    domain = DOMAINS["disk_mesh"]()
    iq.evaluate("hardy", domain, make_field(kind), {"p": 1.0, "gamma": 1.0})
    scale = domain.coord_scale
    # band 0's and band 1's graded pieces' hi tables and the pole pair; the
    # lo tables read their hi tables' values (nested) and keep nothing
    band0, graded = domain.sites(0.0), domain.sites(1.0)[2:4]
    assert not band0[1].kept and not graded[1].kept
    held = [(t.kept["xy"], t.points)
            for t in (band0[0], graded[0]) + domain._tables["pole"]]
    held.append((domain.mesh.kept["xy"], domain.mesh.vertices))
    for (x, y), points in held:
        want_x, want_y = _scaled_xy(points, scale)
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)


def _two_cases_per_geometry():
    cases = corpus.build_corpus(0)
    return [c for i, c in enumerate(cases)
            if sum(d.geometry == c.geometry for d in cases[:i]) < 2]


@functools.lru_cache(maxsize=None)
def _reports_case_by_case():
    """Each picked case's report on a domain built once per geometry."""
    domains = corpus.corpus_geometries()
    domains = {name: domains[name]() for name in corpus.GEOMETRIES}
    return {c.name: iq.evaluate(c.inequality, domains[c.geometry], c.field,
                                c.options).to_dict()
            for c in _two_cases_per_geometry()}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_corpus_keeps_a_domain_per_worker(threads, monkeypatch):
    picked = _two_cases_per_geometry()
    alive, most = [], []
    real = cli.build_domain

    def recording(case):
        domain = real(case)
        alive.append(weakref.ref(domain))
        most.append(sum(ref() is not None for ref in alive))
        return domain

    # the corpus looks the builder up in the CLI when it runs, as the
    # benchmark's tracer expects
    monkeypatch.setattr(cli, "build_domain", recording)
    reports = corpus.run_corpus(picked, threads=threads)
    assert len(alive) == len(corpus.GEOMETRIES)
    assert max(most) <= threads
    assert [ref() for ref in alive] == [None] * len(alive)
    # in case order, though the geometries' cases interleave
    want = _reports_case_by_case()
    assert [r.to_dict() for r in reports] == [want[c.name] for c in picked]
