"""Weight bands above 0 view band 0's site tables.

Above band 0 a domain keeps, per rule, a view of band 0's table: every
column but the density is band 0's own array, and the density is zero on the
rows of the cells the band grades or hands to the pole.  Those rows must add
exactly nothing to an integral, and every integral must match the one over
the band's tables rebuilt as one table per rule (``band_pair``).
"""

import functools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.geometry import (
    AmbientSpace,
    Domain,
    disk_mesh,
    flat_disk_patch,
    plane_rect,
    weighted_integral,
)
from cknlab.geometry import domain as domain_mod
from cknlab.geometry.domain import SiteBatch
from cknlab.geometry.fields import make_field
from cknlab.quadrature import product_rule, product_weights
from geometry_checks import band_pair, band_tables

EUCLID = AmbientSpace.euclidean(3)
# the pole at a mesh vertex, on a polar chart's face and at a chart corner
# (Kuhn triangles); k = 2 on each, so gamma stays below 2
DOMAINS = {
    "disk_mesh": lambda: Domain(disk_mesh(1.0, rings=4), EUCLID),
    "flat_disk_patch": lambda: Domain(flat_disk_patch(EUCLID, 1.0,
                                                      cells=(4, 8))),
    "plane_rect": lambda: Domain(plane_rect(EUCLID, 1.0, cells=8)),
}
FIELDS = {
    "radial_power": make_field("radial_power", (1.5,)),
    "polynomial": make_field("polynomial"),
}


@functools.lru_cache(maxsize=None)
def _domain(name):
    return DOMAINS[name]()


@pytest.mark.parametrize("gamma", [0.5, 1.5])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_views_share_band0_columns(name, gamma):
    domain = _domain(name)
    base = domain.sites(0.0)
    tables = band_tables(domain, gamma)
    assert len(base) == 2 and len(tables) == 4
    for view, table in zip(tables[:2], base):
        for column in fields(SiteBatch):
            got, want = (getattr(view, column.name),
                         getattr(table, column.name))
            if want is None:
                assert got is None, column.name
            elif column.name == "density":
                assert not np.shares_memory(got, want)
            else:
                assert np.shares_memory(got, want), column.name
        # band 0's density on the cells the band keeps whole, 0 elsewhere
        keep = view.density != 0.0
        assert 0 < np.count_nonzero(keep) < len(keep)
        assert np.array_equal(view.density[keep], table.density[keep])
    # a binding's copies of the views take band 0's values and kept powers
    bound = domain.bind(FIELDS["radial_power"])
    views = domain.sites(gamma, bound)[:2]
    for view, table in zip(views, domain.sites(0.0, bound)):
        assert view.psi is table.psi and view.grad_psi is table.grad_psi
        assert view.kept is table.kept
        assert view.abs_psi_pow(1.5) is table.abs_psi_pow(1.5)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_excluded_rows_add_exactly_nothing(name, gamma):
    domain = _domain(name)
    bound = domain.bind(FIELDS["polynomial"])
    for view in domain.sites(gamma, bound)[:2]:
        w = view.density * view.weight(gamma, True)
        out = view.density == 0.0
        assert out.any()
        for f in (np.full(len(w), 3.0), view.abs_psi_pow(1.5), view.grad_psi,
                  view.perp ** 2, view.h_norm):
            terms = w * f
            assert np.all(terms[out] == 0.0)
            # fsum is exact: the rows left out change no bit of the sum
            assert math.fsum(terms) == math.fsum(terms[~out])
    # a constant integrand: c times the summed weights of the kept rows
    band, pole = band_pair(domain, gamma), domain.sites(gamma)[-2:]
    ref = [3.0 * math.fsum(np.concatenate(
        [t.density * t.weight(gamma, False) for t in band[rule::2]]
        + [t.weighted_density(gamma, False) for t in pole[rule::2]]))
        for rule in (0, 1)]
    got = weighted_integral(domain, 3.0, gamma)
    assert got.value == pytest.approx(ref[0], rel=1e-14)
    assert got.err == pytest.approx(abs(ref[0] - ref[1]),
                                    abs=1e-14 * abs(ref[0]))


@pytest.mark.parametrize("hprime", [False, True])
@pytest.mark.parametrize("gamma", [-0.5, 0.5, 1.5])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_reduce_receives_every_tables_weighted_density(name, gamma, hprime,
                                                       monkeypatch):
    domain = _domain(name)
    seen, real = [], domain_mod._reduce

    def recording(tables, weights, *args):
        seen.append((tables, weights))
        return real(tables, weights, *args)

    monkeypatch.setattr(domain_mod, "_reduce", recording)
    weighted_integral(domain, 1.0, gamma,
                      "h_power_times_hprime" if hprime else "h_power")
    (tables, weights), = seen
    # the band's views and graded pieces, then the domain's pole pair
    assert len(tables) == len(weights) == 6
    assert all(a is b for a, b in zip(tables[4:], domain._tables["pole"]))
    for table, w in zip(tables, weights):
        assert np.array_equal(w, table.weighted_density(gamma, hprime))
    for table, w in zip(tables[:4], weights):
        assert np.array_equal(w, table.density * table.weight(gamma, hprime))
    # the pole pair's densities take the weights fitted to t ** alpha over
    # that power at their radial nodes, t outer
    alpha = domain.k - 1 - gamma
    for table, w, npts in zip(tables[4:], weights[4:],
                              (domain.order, domain.order - 1)):
        t, fit = product_rule(2 * npts, -0.8)
        radial = product_weights(fit, alpha) * t ** -alpha
        want = (table.density.reshape(-1, len(t), npts ** (domain.k - 1))
                * radial[:, None]).reshape(-1)
        assert np.array_equal(w, want * table.weight(gamma, hprime))


def _reference(domain, integrand, gamma, hprime, field):
    """Hi and lo sums over the rebuilt band tables and the pole's, exact,
    with the field evaluated on each of them afresh; the pole's weighted
    densities carry its radial weights."""
    bound = domain.bind(field)
    band, pole = ([t.with_field(*bound.at_sites(t)) for t in tables]
                  for tables in (band_pair(domain, gamma),
                                 domain.sites(gamma)[-2:]))
    return [math.fsum(np.concatenate(
        [t.density * t.weight(gamma, hprime) * integrand(t)
         for t in band[rule::2]]
        + [t.weighted_density(gamma, hprime) * integrand(t)
           for t in pole[rule::2]])) for rule in (0, 1)]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(DOMAINS)),
       kind=st.sampled_from(sorted(FIELDS)),
       gamma=st.floats(0.01, 1.99),
       p=st.floats(1.0, 2.0),
       hprime=st.booleans())
def test_integrals_match_the_rebuilt_tables(name, kind, gamma, p, hprime):
    domain = _domain(name)
    field = FIELDS[kind]

    def integrand(b):
        return b.abs_psi_pow(p) * (1.0 + b.h_norm) + b.grad_psi ** p

    got = weighted_integral(
        domain, integrand, gamma,
        "h_power_times_hprime" if hprime else "h_power", field=field)
    hi, lo = _reference(domain, integrand, gamma, hprime, field)
    assert got.value == pytest.approx(hi, rel=1e-13)
    assert got.err == pytest.approx(abs(hi - lo), abs=1e-13 * abs(hi))


def _rows(table, rows):
    """``table``'s sites at ``rows``, as a table of its own."""
    columns = {f.name: getattr(table, f.name) for f in fields(SiteBatch)}
    return SiteBatch(**{
        name: value[rows] if isinstance(value, np.ndarray) else value
        for name, value in columns.items()})


def _band0_in_two_pairs(real):
    """``Domain.sites`` with band 0 as two (hi, lo) pairs, each of half the
    rows of its rule's table."""

    def sites(self, gamma=0.0, bound_field=None):
        tables = real(self, gamma, bound_field)
        if gamma != 0.0:
            return tables
        hi, lo = ([_rows(t, slice(None, len(t.r) // 2)),
                   _rows(t, slice(len(t.r) // 2, None))] for t in tables)
        return hi[0], lo[0], hi[1], lo[1]

    return sites


def _close(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a))
    return a == b


# each reader of band 0: the degenerate check (every report and the zero
# field), the Sobolev support volume, the signed check and the minimality
BAND0_CASES = [
    ("hardy", FIELDS["radial_power"], {"p": 1.5, "gamma": 0.5}),
    ("hardy", make_field("polynomial", (0.0,) * 6), {"p": 2.0, "gamma": 1.0}),
    ("sobolev_hs", FIELDS["polynomial"], {"p": 1.5}),
    ("hardy_signed", FIELDS["radial_power"], {"p": 2.0, "gamma": 1.0}),
    ("hardy", FIELDS["radial_power"],
     {"p": 2.0, "gamma": 1.0, "minimal": True}),
]


@pytest.mark.parametrize("name", ["disk_mesh", "flat_disk_patch"])
def test_band0_readers_read_every_band0_pair(monkeypatch, name):
    from cknlab.errors import PreconditionViolated
    from cknlab.inequalities import evaluate
    domain = DOMAINS[name]()
    want = [evaluate(i, domain, f, o).to_dict() for i, f, o in BAND0_CASES]
    monkeypatch.setattr(Domain, "sites", _band0_in_two_pairs(Domain.sites))
    assert len(DOMAINS[name]().sites(0.0)) == 4
    got = [evaluate(i, DOMAINS[name](), f, o).to_dict()
           for i, f, o in BAND0_CASES]
    assert want[1]["degenerate"] and not want[0]["degenerate"]
    assert all(map(_close, got, want))
    with pytest.raises(PreconditionViolated, match="nonnegative"):
        evaluate("hardy_signed", domain,
                 make_field("polynomial", (0.1, 1.0, 0.0, 0.0, 0.0, 0.0)),
                 {"p": 2.0, "gamma": 1.0})
