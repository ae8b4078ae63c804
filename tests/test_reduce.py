"""The fused reductions against the concatenate-then-sum formula.

``weighted_integral`` and ``boundary_integral`` evaluate the integrand once
per site table and sum each rule across its tables (the band's, then the
pole's).  The reference below is the formula they replace: the columns of
every rule concatenated, the integrand broadcast, clipped and summed with
``np.sum``.  The two sum in another order, so they agree to roundoff,
``1e-13`` relative to the sum of the absolute contributions; both refuse the
same integrands.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab.errors import InvalidArgument
from cknlab.geometry.domain import (SiteBatch, boundary_integral,
                                    weighted_integral)

REL = 1e-13


class TableDomain:
    """Just the site tables of a domain: a band, a pole and a boundary."""

    def __init__(self, band, pole, boundary):
        self.band, self.pole, self.boundary = band, pole, boundary

    def sites(self, gamma, bound):
        return self.band + self.pole

    def boundary_sites(self, bound=None):
        return self.boundary


def _table(rng, size):
    return SiteBatch(points=rng.normal(size=(size, 3)),
                     density=rng.uniform(0.0, 2.0, size),
                     r=rng.uniform(0.0, 1.0, size),
                     h=rng.uniform(0.1, 1.0, size),
                     hp=rng.uniform(0.5, 1.5, size),
                     conormal_dot=rng.uniform(-1.0, 1.0, size))


def _values(rng, size, scale, negative):
    """Per-site integrand values; ``negative`` sets one site to that many
    times the refusal threshold below zero."""
    f = scale * rng.uniform(0.0, 1.0, size)
    if negative and size:
        f[rng.integers(size)] = -negative * 1e-12 * max(1.0, scale)
    return f


# -- reference: the rule's columns concatenated, then summed ----------------

def _per_rule(tables, column):
    return tuple(np.concatenate([column(t) for t in tables[rule::2]])
                 for rule in (0, 1))


def ref_reduce(tables, weights, integrand, conormal=False):
    values = _per_rule(tables, lambda b: np.broadcast_to(np.asarray(
        integrand(b) if callable(integrand) else integrand, dtype=float),
        b.r.shape))
    sums, scales = [], []
    for f, w, batch in zip(values, weights, tables):
        if np.any(f < -1e-12 * max(1.0, float(np.max(np.abs(f),
                                                         initial=0.0)))):
            raise InvalidArgument("negative")
        contrib = w * np.maximum(f, 0.0)
        if conormal:
            contrib = contrib * batch.conormal_dot
        sums.append(float(np.sum(contrib)))
        scales.append(float(np.sum(np.abs(contrib))))
    return sums, scales


def ref_weighted(domain, integrand, gamma, hprime):
    tables = domain.band + domain.pole
    weights = _per_rule(tables, lambda t: t.density * t.weight(gamma, hprime))
    return ref_reduce(tables, weights, integrand)


def ref_boundary(domain, integrand, exponent, conormal):
    tables = domain.boundary
    weights = _per_rule(tables, lambda t: t.density * t.weight(exponent,
                                                               False))
    return ref_reduce(tables, weights, integrand, conormal)


def _agree(got, ref):
    (hi, lo), (s_hi, s_lo) = ref
    assert abs(got.value - hi) <= REL * s_hi
    assert abs(got.err - abs(hi - lo)) <= REL * (s_hi + s_lo)


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = [draw(st.integers(1, 300)) for _ in range(2)]
    pole = draw(st.sampled_from([(), (0, 0), (1, 1), (24, 13)]))
    boundary = [draw(st.integers(0, 80)) for _ in range(2)]
    domain = TableDomain(tuple(_table(rng, s) for s in sizes),
                         tuple(_table(rng, s) for s in pole),
                         tuple(_table(rng, s) for s in boundary))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    # 0: nonnegative; below 1: roundoff, clipped; above 1: refused
    negative = draw(st.sampled_from([0.0, 0.0, 0.3, 0.9, 1.5, 40.0]))
    kind = draw(st.sampled_from(["array", "constant", "callable_constant"]))
    if kind == "array":
        cols = {}

        def integrand(b):
            # one column per table, fixed on its first use
            if id(b) not in cols:
                cols[id(b)] = _values(rng, len(b.r), scale, negative)
            return cols[id(b)]
    else:
        c = -negative * 1e-12 * max(1.0, scale) if negative else scale
        integrand = c if kind == "constant" else (lambda b: c)
    return domain, integrand, draw(st.sampled_from([0.0, 0.5, 1.0, -1.5])), \
        draw(st.booleans())


def _both(call, ref):
    """``call()`` and ``ref()``, each a result or InvalidArgument."""
    out = []
    for f in (call, ref):
        try:
            out.append(f())
        except InvalidArgument:
            out.append(InvalidArgument)
    return out


@settings(max_examples=300, deadline=None)
@given(cases())
def test_weighted_integral_matches_concatenated_sum(case):
    domain, integrand, gamma, hprime = case
    kind = "h_power_times_hprime" if hprime else "h_power"
    got, ref = _both(
        lambda: weighted_integral(domain, integrand, gamma, kind),
        lambda: ref_weighted(domain, integrand, gamma, hprime))
    if ref is InvalidArgument or got is InvalidArgument:
        assert got is ref
    else:
        _agree(got, ref)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_boundary_integral_matches_concatenated_sum(case):
    domain, integrand, exponent, conormal = case
    got, ref = _both(
        lambda: boundary_integral(domain, integrand, exponent,
                                  with_radial_conormal=conormal),
        lambda: ref_boundary(domain, integrand, exponent, conormal))
    if ref is InvalidArgument or got is InvalidArgument:
        assert got is ref
    else:
        _agree(got, ref)


@pytest.mark.parametrize("conormal", [False, True])
def test_constant_integrand_takes_the_conormal(conormal):
    rng = np.random.default_rng(5)
    domain = TableDomain((), (), (_table(rng, 40), _table(rng, 30)))
    got = boundary_integral(domain, 2.0, 0.0, with_radial_conormal=conormal)
    tables = domain.boundary
    want = 2.0 * np.sum(tables[0].density * (tables[0].conormal_dot
                                             if conormal else 1.0))
    assert got.value == pytest.approx(want, rel=REL, abs=0.0)


def test_refusal_sees_the_rule_across_band_and_pole():
    # -0.5 is roundoff next to the band's 1e12 but not next to the pole's
    # 1: the rule's largest value sets the threshold, as it did for the
    # concatenated columns
    rng = np.random.default_rng(6)
    domain = TableDomain((_table(rng, 4), _table(rng, 4)),
                         (_table(rng, 3), _table(rng, 3)), ())
    cols = {id(t): np.full(len(t.r), v) for t, v in zip(
        domain.band + domain.pole, (1e12, 1e12, -0.5, 1.0))}
    got = weighted_integral(domain, lambda b: cols[id(b)], 0.0)
    hi, lo = ref_weighted(domain, lambda b: cols[id(b)], 0.0, False)[0]
    assert got.value == pytest.approx(hi, rel=REL)
    cols[id(domain.band[0])] = np.full(4, 1.0)
    with pytest.raises(InvalidArgument, match="nonnegative"):
        weighted_integral(domain, lambda b: cols[id(b)], 0.0)
