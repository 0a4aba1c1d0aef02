"""Detector matrix: one injected defect per route, and the checks that must catch it.

Each row names a route of the battery, injects one defect into it and names
the checks that must fail.  The defect is patched in at the name the check
reads, since ``verify`` imports by name.  A row runs only the checks it
names, through ``run_battery(names)``, and fails if any of them passes.
The defect-free battery must pass every check.

Two routes have no row, because no single defect in them fails any check:
the heat-trace quadrature (no check calls ``spectral.heat_trace``), and the
linear pass of the residual (it only picks where the quadratic recurrence
starts, and that recurrence finds a correct table correct from any start).
"""

import dataclasses

import pytest

from treezeta import dyck, special_values, verify
from treezeta.exact import IntPoly

_ZERO, _ONE, _TWO_Q = IntPoly(), IntPoly([1]), IntPoly([0, 2])


def _closed_form(mp):
    # N_7 + 2q: no constant term and even coefficients, so no guard of the two-step table fires
    honest = special_values._neg_value_closed_form
    mp.setattr(special_values, "_neg_value_closed_form",
               lambda m: honest(m) + (_TWO_Q if m == 7 else _ZERO))


def _moments_route(mp):
    honest = special_values.binomial_transform
    mp.setattr(special_values, "binomial_transform",
               lambda polys: [p + (_ONE if m == 7 else _ZERO) for m, p in enumerate(honest(polys))])


def _series_route(mp):
    honest = special_values._neg_values_series
    mp.setattr(special_values, "_neg_values_series",
               lambda m_max: tuple(p + (_ONE if m == 7 else _ZERO)
                                   for m, p in enumerate(honest(m_max))))


def _two_step_table(mp):
    # 2q P_3 + 2q, so P_3 + 1
    honest = special_values.two_step_numerator
    mp.setattr(special_values, "two_step_numerator",
               lambda p, a, b, m: honest(p, a, b, m) + (_TWO_Q if m == 2 else _ZERO))


def _int_recurrence(mp):
    honest = verify._values_at
    mp.setattr(verify, "_values_at",
               lambda q, n: [v + (k == 9) for k, v in enumerate(honest(q, n))])


def _dyck_route(name):
    def inject(mp):
        honest = getattr(dyck, name)
        mp.setattr(dyck, name, lambda n: honest(n) + (_ONE if n == 5 else _ZERO))

    return inject


def _walk_counts(mp):
    honest = verify.moment_polynomials
    mp.setattr(verify, "moment_polynomials",
               lambda n: tuple(p + (_ONE if k == 4 else _ZERO) for k, p in enumerate(honest(n))))


def _zeta_numeric(mp):
    honest = verify.zeta_numeric

    def zeta_numeric(q, s, spec=None):
        ev = honest(q, s, spec)
        return dataclasses.replace(ev, value=ev.value * (1 + 1e-8))

    mp.setattr(verify, "zeta_numeric", zeta_numeric)


def _xi_value(mp):
    # a common factor would keep xi symmetric; this one is odd under s -> 1 - s
    honest = verify.xi_value
    mp.setattr(verify, "xi_value",
               lambda q, s, spec=None: honest(q, s, spec) * (1 + 1e-8 * s.imag))


def _scaled(name, factor=1 + 1e-8):
    def inject(mp):
        honest = getattr(verify, name)
        mp.setattr(verify, name, lambda *args: honest(*args) * factor)

    return inject


def _shifted(name, shift=1e-8):
    def inject(mp):
        honest = getattr(verify, name)
        mp.setattr(verify, name, lambda *args: honest(*args) + shift)

    return inject


def _residual_series(mp):
    honest = verify.quadratic_residual_series
    mp.setattr(verify, "quadratic_residual_series", lambda n: (*honest(n)[:-1], _ONE))


# route: (defect injector, the checks that must fail)
ROWS = {
    "negative values, closed form": (
        _closed_form, ("negvals", "dyck", "twostep", "integers", "residual")
    ),
    "negative values, moments": (_moments_route, ("negvals",)),
    "negative values, series": (_series_route, ("negvals",)),
    "two-step table": (_two_step_table, ("value_polys", "dyck", "integers", "residual")),
    "quadratic recurrence in integers": (_int_recurrence, ("twostep",)),
    "cycle-lemma dp": (_dyck_route("_weight_poly_dp"), ("dyck",)),
    "letter walk": (_dyck_route("_weight_poly_walk"), ("dyck",)),
    "walk-count polynomials": (_walk_counts, ("moments",)),
    "quadrature zeta": (_zeta_numeric, ("integers",)),
    "quadrature xi": (_xi_value, ("fe",)),
    "quadrature resolvent": (_scaled("resolvent_transform"), ("laplace",)),
    "positive value series": (_scaled("pos_value_genfun"), ("laplace",)),
    "negative value series": (_scaled("neg_value_genfun"), ("laplace",)),
    "reflection defect": (_shifted("symmetry_defect"), ("symmetry",)),
    "cross combination": (_scaled("entire_combination"), ("entire",)),
    "quadratic residual": (_residual_series, ("residual",)),
    "semicircle zeta": (_scaled("zeta_sato_tate"), ("boundary",)),
}


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty exact tables, so a defect in a table's build reaches the checks that read it."""
    monkeypatch.setattr(special_values, "_closed_forms", [])
    monkeypatch.setattr(special_values, "_value_polys", [_ONE])
    special_values.negative_value_table.cache_clear()
    yield
    special_values.negative_value_table.cache_clear()


@pytest.mark.parametrize("route", ROWS)
def test_each_named_check_catches_the_defect(monkeypatch, fresh_tables, route):
    inject, names = ROWS[route]
    inject(monkeypatch)
    results = verify.run_battery(list(names))
    assert [r.name for r in results if r.passed] == []


def test_every_check_catches_some_defect():
    assert {name for _, names in ROWS.values() for name in names} == set(verify.CHECKS)


def test_the_defect_free_battery_passes_every_check(fresh_tables):
    results = verify.run_battery()
    assert [r.name for r in results if r.passed] == list(verify.CHECKS)
