"""Darboux transformation: superpotential, partner potential, intertwining."""
import math

import pytest

from oracles import chi
from ptdarboux.closed_form import TrigEigenfunction
from ptdarboux.darboux import (
    intertwine,
    partner_potential,
    superpotential,
    transform_normalization,
    transformed_eigenpair,
)
from ptdarboux.errors import DomainError, ParameterError
from ptdarboux.models import WellConfig, box_energy


def _grid(alpha, t_margin=1e-2, points=400):
    step = (math.pi - 2 * t_margin) / (points - 1)
    return [(t_margin + i * step) / (2 * alpha) for i in range(points)]


def test_seed_energy_is_the_ground_box_level():
    # omega^2 of the partner potential is box_energy(cfg, 1) = 4 alpha^2:
    # W' + W^2 alone is 8 alpha^2 / sin^2(2 alpha x) - 4 alpha^2
    cfg = WellConfig(1.5)
    assert box_energy(cfg, 1) == 9.0
    x = 0.3
    w, s = superpotential(cfg, x), math.sin(3.0 * x)
    assert partner_potential(cfg, x) == 9.0 / (s * s) + w * w + 9.0


def test_functions_on_the_well_keep_the_former_arithmetic():
    # each function takes the WellConfig itself; omega^2 and the eigenpair's
    # energy are box_energy, the same expression 4 alpha^2 k^2 as before
    for alpha in (1.0, 0.6024, 1e-8, 1e8):
        cfg = WellConfig(alpha)
        omega_sq = 4.0 * alpha * alpha
        for x in _grid(alpha, points=60):
            t = 2.0 * alpha * x
            w = -2.0 * alpha * math.cos(t) / math.sin(t)
            s = math.sin(2.0 * alpha * x)
            assert superpotential(cfg, x) == w
            assert partner_potential(cfg, x) == 4.0 * alpha * alpha / (s * s) + w * w + omega_sq
        for k in (2, 5, 30):
            energy, _ = transformed_eigenpair(cfg, k)
            assert energy == 4.0 * alpha * alpha * (k * k) == box_energy(cfg, k)


def test_superpotential_matches_cotangent():
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)
        for x in _grid(alpha, points=50):
            expected = -2 * alpha / math.tan(2 * alpha * x)
            assert abs(superpotential(cfg, x) - expected) <= 1e-12 * max(
                1.0, abs(expected)
            )


def test_superpotential_open_domain():
    cfg = WellConfig(1.0)
    for bad in (0.0, cfg.length, -0.3):
        with pytest.raises(DomainError):
            superpotential(cfg, bad)


def test_superpotential_is_log_derivative_of_seed():
    # W = -(d/dx) log phi_1, checked by central differences, with the seed
    # phi_1 = sqrt(4 alpha / pi) sin(2 alpha x) at alpha = 1
    cfg = WellConfig(1.0)

    def phi(x):
        return math.sqrt(4.0 / math.pi) * math.sin(2.0 * x)

    h = 1e-6
    for x in (0.3, 0.8, 1.2):
        dphi = (phi(x + h) - phi(x - h)) / (2 * h)
        assert abs(superpotential(cfg, x) + dphi / phi(x)) <= 1e-8


def test_partner_potential_collapses():
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)
        for x in _grid(alpha, points=50):
            expected = 8 * alpha * alpha / math.sin(2 * alpha * x) ** 2
            assert abs(partner_potential(cfg, x) - expected) <= 1e-13 * expected


def test_intertwine_annihilates_seed():
    cfg = WellConfig(1.0)
    for x in _grid(1.0):
        assert abs(intertwine(cfg, 1, x)) <= 1e-12


def test_intertwine_matches_stable_form():
    # naive cotangent form agrees with the Chebyshev rewrite away from walls
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)
        for k in (2, 3, 7, 12):
            norm = transform_normalization(cfg, k)
            f = TrigEigenfunction(k, alpha)
            for x in _grid(alpha, points=150):
                assert abs(norm * intertwine(cfg, k, x) - chi(f, x)) <= 1e-12


def test_intertwine_validation():
    cfg = WellConfig(1.0)
    with pytest.raises(ParameterError):
        intertwine(cfg, 0, 0.5)
    with pytest.raises(DomainError):
        intertwine(cfg, 2, 0.0)


def test_transform_normalization_values():
    cfg = WellConfig(1.0)
    assert math.isclose(
        transform_normalization(cfg, 2), 1 / (2 * math.sqrt(3)), rel_tol=1e-15
    )
    cfg_half = WellConfig(0.5)
    assert math.isclose(
        transform_normalization(cfg_half, 3), 1 / math.sqrt(8), rel_tol=1e-15
    )


def test_transform_normalization_seed_is_annihilated():
    cfg = WellConfig(1.0)
    with pytest.raises(ZeroDivisionError):
        transform_normalization(cfg, 1)
    with pytest.raises(ParameterError):
        transform_normalization(cfg, 0)


def test_transformed_eigenpair():
    alpha = 1.0
    cfg = WellConfig(alpha)
    energy, profile = transformed_eigenpair(cfg, 4)
    assert energy == box_energy(WellConfig(alpha), 4)
    f = TrigEigenfunction(4, alpha)
    for x in _grid(alpha, points=80):
        assert abs(profile(x) - chi(f, x)) <= 1e-12
    with pytest.raises(ParameterError):
        transformed_eigenpair(cfg, 1)


def test_partner_energies_skip_the_seed_level():
    # the transformed family starts at 16 alpha^2: the 4 alpha^2 level is gone
    cfg = WellConfig(1.0)
    energies = [transformed_eigenpair(cfg, k)[0] for k in range(2, 6)]
    assert energies == [16.0, 36.0, 64.0, 100.0]
    omega_sq = box_energy(cfg, 1)
    assert omega_sq == 4.0 and omega_sq not in energies
