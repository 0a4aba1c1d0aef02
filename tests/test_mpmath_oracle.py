"""High-precision oracle for the gamma function and the quadrature engine.

mpmath shares no code with treezeta: its gamma and its tanh-sinh quadrature
at 25 digits (40 for the heat trace) give references for the log-space
Lanczos gamma, for the semicircle zeta's closed form and for the nested
trapezoid.  Skipped where mpmath is not installed.
"""

import pytest

from treezeta import spectral
from treezeta.spectral import heat_trace, zeta_numeric, zeta_sato_tate
from treezeta.verify import sato_quad_grid

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.fixture(autouse=True)
def precision():
    with mp.workdps(25):
        yield


@pytest.mark.parametrize(
    "s",
    [0.5, 5, -2.5, 0.3 - 0.4j, 0.73 + 9.7j, 150.5, -150.3, 170.2 + 3j, 0.5 + 300j, -0.3 - 250j],
)
def test_complex_gamma(s):
    # exp of a logarithm: the relative error grows with |log Gamma(s)|
    want = mpmath.gamma(mpmath.mpc(s))
    scale = max(1.0, abs(complex(mpmath.loggamma(mpmath.mpc(s)))))
    got = spectral._exp_log(spectral._log_gamma(complex(s)), complex(s))
    assert abs(got - complex(want)) <= 1e-14 * scale * abs(complex(want))


def _zeta_by_mpmath(q: int, s: complex):
    q, s = mp.mpf(q), mp.mpc(s)

    def f(theta):
        c = mp.cos(theta)
        weight = 2 / mp.pi * q * (q + 1) * mp.sin(theta) ** 2 / ((q + 1) ** 2 - 4 * q * c * c)
        return (q + 1 - 2 * mp.sqrt(q) * c) ** (-s) * weight

    return mp.quad(f, mp.linspace(0, mp.pi, 5), error=True)


@pytest.mark.parametrize(
    "q, s",
    [
        (2, 1.5 + 0.5j),
        (3, -2.3 + 1.1j),
        (5, 4.2),
        (2, 0.5 + 3j),
        (7, -4.5 - 2j),
        (2, 1.2 + 50j),
        # values near the top of the double range, 2.9e303 to 1.1e308
        (2, 403),
        (2, 405),
        (2, 409),
    ],
)
def test_zeta_numeric(q, s):
    want, err = _zeta_by_mpmath(q, s)
    assert err < 1e-20 * abs(want)
    got = zeta_numeric(q, s).require()
    assert abs(got - complex(want)) <= 1e-11 * abs(complex(want))


@pytest.mark.parametrize("s", sato_quad_grid())
def test_zeta_sato_tate_is_its_defining_integral(s):
    # (2/pi) int_0^pi (2 - 2 cos phi)^-s sin^2 phi dphi, with 2 - 2 cos phi = 4 sin^2(phi/2)
    w = mp.mpc(s)

    def f(phi):
        return (4 * mp.sin(phi / 2) ** 2) ** (-w) * mp.sin(phi) ** 2

    integral, err = mp.quad(f, [0, mp.pi], error=True)
    want = complex(2 / mp.pi * integral)
    assert err < 1e-20 * abs(integral)
    assert abs(zeta_sato_tate(s) - want) <= 1e-13 * abs(want)


def _heat_by_mpmath(q: int, t: float):
    """The heat trace at 40 digits, and the relative error mpmath estimates.

    mpmath's quadrature stops on an absolute error, so the integrand is taken
    as exp(-t (lambda - lo)) W, of order one near its peak, and the value is
    multiplied by exp(-t lo) after; lambda - lo is formed at 40 digits, not
    from treezeta's 4 sqrt(q) sin^2(theta / 2).  The peak at theta = 0 has
    width about (t sqrt(q))^(-1/2), so the breakpoints double from there.
    """
    with mp.workdps(40):
        q, t = mp.mpf(q), mp.mpf(t)
        lo = (mp.sqrt(q) - 1) ** 2

        def f(theta):
            c = mp.cos(theta)
            weight = 2 / mp.pi * q * (q + 1) * mp.sin(theta) ** 2 / ((q + 1) ** 2 - 4 * q * c * c)
            return weight * mp.exp(-t * (q + 1 - 2 * mp.sqrt(q) * c - lo))

        width = 1 / mp.sqrt(t * mp.sqrt(q) + 1)
        breaks = [width * 2**k for k in range(40) if width * 2**k < mp.pi]
        integral, err = mp.quad(f, [0, *breaks, mp.pi], error=True)
        return float(integral * mp.exp(-t * lo)), float(err / integral)


@pytest.mark.parametrize("t", [0.3, 100.0, 200.0, 400.0, 1000.0])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_heat_trace_at_large_times(q, t):
    # at q = 5, t = 1000 the value, about 1e-664, underflows to 0 in both
    want, err = _heat_by_mpmath(q, t)
    assert err < 1e-30
    assert abs(heat_trace(q, t) - want) <= 1e-12 * want


def test_heat_trace_at_q2_t4000():
    want, err = _heat_by_mpmath(2, 4000.0)
    assert err < 1e-30
    assert abs(heat_trace(2, 4000.0) - want) <= 1e-12 * want
