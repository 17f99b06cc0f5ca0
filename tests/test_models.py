"""Box and Poschl-Teller models: values, spectra, domains."""
import math

import pytest

from oracles import integrate, pt_eigen_hypergeom
from ptdarboux import closed_form, verify
from ptdarboux.errors import DomainError, ParameterError
from ptdarboux.models import (
    PTParams,
    WellConfig,
    box_energy,
    pt_energy,
    pt_potential,
)


def test_well_config():
    cfg = WellConfig(2.0)
    assert math.isclose(cfg.length, math.pi / 4, rel_tol=1e-15)
    with pytest.raises(ParameterError):
        WellConfig(0.0)
    with pytest.raises(ParameterError):
        WellConfig(-1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_every_alpha_check_is_the_well_config_one(alpha):
    # WellConfig(inf) used to pass, and box_energy then returned inf; every
    # other entry point raises WellConfig's own error
    with pytest.raises(ParameterError) as expected:
        WellConfig(alpha)
    checks = [
        lambda: box_energy(WellConfig(alpha), 2),
        lambda: closed_form.TrigEigenfunction(2, alpha),
        lambda: closed_form.identity_sides(2, alpha, 0.5),
        lambda: verify.check_residual(2, alpha),
        lambda: verify.fd_spectrum(alpha, 100, 1),
    ]
    for check in checks:
        with pytest.raises(ParameterError) as raised:
            check()
        assert str(raised.value) == str(expected.value)


def test_pt_params_validation():
    PTParams(2.0, 2.0)
    with pytest.raises(ParameterError):
        PTParams(1.0, 2.0)
    with pytest.raises(ParameterError):
        PTParams(2.0, 0.5)


def test_box_energy():
    cfg = WellConfig(1.0)
    assert box_energy(cfg, 1) == 4.0
    assert box_energy(cfg, 3) == 36.0
    assert box_energy(WellConfig(0.5), 4) == 16.0
    with pytest.raises(ParameterError):
        box_energy(cfg, 0)


def test_box_eigenfunctions_orthonormal():
    # composite quadrature Gram of the first six box modes
    # phi_k = sqrt(4 alpha / pi) sin(2 alpha k x) vs identity
    cfg = WellConfig(1.0)

    def phi(k, x):
        return math.sqrt(4.0 / math.pi) * math.sin(2.0 * k * x)

    for i in range(1, 7):
        for j in range(i, 7):
            val = integrate(lambda x: phi(i, x) * phi(j, x), 0.0, cfg.length, 64, 8)
            assert abs(val - (1.0 if i == j else 0.0)) <= 1e-12


def test_pt_potential_symmetric_case_collapses():
    # kappa = lam = 2: V = 8 alpha^2 / sin^2(2 alpha x)
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)
        p = PTParams(2.0, 2.0)
        for i in range(1, 40):
            x = cfg.length * i / 40
            expected = 8 * alpha * alpha / math.sin(2 * alpha * x) ** 2
            assert abs(pt_potential(cfg, p, x) - expected) <= 1e-13 * expected


def test_pt_potential_asymmetric_value():
    cfg = WellConfig(1.0)
    p = PTParams(3.0, 2.0)
    x = 0.4
    expected = 6.0 / math.sin(x) ** 2 + 2.0 / math.cos(x) ** 2
    assert math.isclose(pt_potential(cfg, p, x), expected, rel_tol=1e-14)


def test_pt_potential_open_domain():
    cfg = WellConfig(1.0)
    p = PTParams(2.0, 2.0)
    with pytest.raises(DomainError):
        pt_potential(cfg, p, 0.0)
    with pytest.raises(DomainError):
        pt_potential(cfg, p, cfg.length)


def test_pt_energy_values():
    cfg = WellConfig(1.0)
    p = PTParams(2.0, 2.0)
    assert pt_energy(cfg, p, 0) == 16.0
    assert pt_energy(cfg, p, 1) == 36.0
    assert pt_energy(cfg, p, 2) == 64.0
    with pytest.raises(ParameterError):
        pt_energy(cfg, p, -1)


def test_pt_energy_matches_shifted_box_energy_bitwise():
    # symmetric well level n sits exactly at box level k = n + 2
    p = PTParams(2.0, 2.0)
    for alpha in (0.5, 1.0, 2.0, 0.37, 1.9371):
        cfg = WellConfig(alpha)
        for n in range(0, 30):
            assert pt_energy(cfg, p, n) == box_energy(cfg, n + 2)


# pt_eigen_hypergeom is the tests' point-wise bound state (tests/oracles.py),
# the reference for closed_form.TGrid.bound_state_pairs.


def test_pt_eigen_hypergeom_ground_state_shape():
    # n = 0: the hypergeometric factor is identically 1
    cfg = WellConfig(1.0)
    p = PTParams(2.0, 2.0)
    for x in (0.2, 0.7, 1.3):
        s, c = math.sin(x), math.cos(x)
        expected = 2.5 * s**2.0 * c**2.0
        assert pt_eigen_hypergeom(cfg, p, 0, 2.5, x) == expected


def test_pt_eigen_hypergeom_domain_and_index():
    cfg = WellConfig(1.0)
    p = PTParams(2.0, 2.0)
    assert pt_eigen_hypergeom(cfg, p, 1, 1.0, 0.0) == 0.0
    with pytest.raises(ParameterError):
        pt_eigen_hypergeom(cfg, p, -1, 1.0, 0.5)


def test_pt_eigen_hypergeom_odd_state_midpoint_node():
    # odd levels vanish at the interval midpoint (to rounding)
    cfg = WellConfig(1.0)
    p = PTParams(2.0, 2.0)
    mid = cfg.length / 2
    for n in (1, 3, 5):
        assert abs(pt_eigen_hypergeom(cfg, p, n, 1.0, mid)) < 1e-15
