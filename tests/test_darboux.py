"""Darboux transformation: superpotential, partner potential, intertwining."""
import math

import pytest

from oracles import chi
from ptdarboux.closed_form import TrigEigenfunction
from ptdarboux.darboux import (
    DarbouxContext,
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


def test_context_validation():
    ctx = DarbouxContext(WellConfig(1.5))
    assert ctx.omega_sq == 9.0


def test_superpotential_matches_cotangent():
    for alpha in (0.5, 1.0, 2.0):
        ctx = DarbouxContext(WellConfig(alpha))
        for x in _grid(alpha, points=50):
            expected = -2 * alpha / math.tan(2 * alpha * x)
            assert abs(superpotential(ctx, x) - expected) <= 1e-12 * max(
                1.0, abs(expected)
            )


def test_superpotential_open_domain():
    ctx = DarbouxContext(WellConfig(1.0))
    for bad in (0.0, ctx.cfg.length, -0.3):
        with pytest.raises(DomainError):
            superpotential(ctx, bad)


def test_superpotential_is_log_derivative_of_seed():
    # W = -(d/dx) log phi_1, checked by central differences, with the seed
    # phi_1 = sqrt(4 alpha / pi) sin(2 alpha x) at alpha = 1
    ctx = DarbouxContext(WellConfig(1.0))

    def phi(x):
        return math.sqrt(4.0 / math.pi) * math.sin(2.0 * x)

    h = 1e-6
    for x in (0.3, 0.8, 1.2):
        dphi = (phi(x + h) - phi(x - h)) / (2 * h)
        assert abs(superpotential(ctx, x) + dphi / phi(x)) <= 1e-8


def test_partner_potential_collapses():
    for alpha in (0.5, 1.0, 2.0):
        ctx = DarbouxContext(WellConfig(alpha))
        for x in _grid(alpha, points=50):
            expected = 8 * alpha * alpha / math.sin(2 * alpha * x) ** 2
            assert abs(partner_potential(ctx, x) - expected) <= 1e-13 * expected


def test_intertwine_annihilates_seed():
    ctx = DarbouxContext(WellConfig(1.0))
    for x in _grid(1.0):
        assert abs(intertwine(ctx, 1, x)) <= 1e-12


def test_intertwine_matches_stable_form():
    # naive cotangent form agrees with the Chebyshev rewrite away from walls
    for alpha in (0.5, 1.0, 2.0):
        ctx = DarbouxContext(WellConfig(alpha))
        for k in (2, 3, 7, 12):
            norm = transform_normalization(ctx, k)
            f = TrigEigenfunction(k, alpha)
            for x in _grid(alpha, points=150):
                assert abs(norm * intertwine(ctx, k, x) - chi(f, x)) <= 1e-12


def test_intertwine_validation():
    ctx = DarbouxContext(WellConfig(1.0))
    with pytest.raises(ParameterError):
        intertwine(ctx, 0, 0.5)
    with pytest.raises(DomainError):
        intertwine(ctx, 2, 0.0)


def test_transform_normalization_values():
    ctx = DarbouxContext(WellConfig(1.0))
    assert math.isclose(
        transform_normalization(ctx, 2), 1 / (2 * math.sqrt(3)), rel_tol=1e-15
    )
    ctx_half = DarbouxContext(WellConfig(0.5))
    assert math.isclose(
        transform_normalization(ctx_half, 3), 1 / math.sqrt(8), rel_tol=1e-15
    )


def test_transform_normalization_seed_is_annihilated():
    ctx = DarbouxContext(WellConfig(1.0))
    with pytest.raises(ZeroDivisionError):
        transform_normalization(ctx, 1)
    with pytest.raises(ParameterError):
        transform_normalization(ctx, 0)


def test_transformed_eigenpair():
    alpha = 1.0
    ctx = DarbouxContext(WellConfig(alpha))
    energy, profile = transformed_eigenpair(ctx, 4)
    assert energy == box_energy(WellConfig(alpha), 4)
    f = TrigEigenfunction(4, alpha)
    for x in _grid(alpha, points=80):
        assert abs(profile(x) - chi(f, x)) <= 1e-12
    with pytest.raises(ParameterError):
        transformed_eigenpair(ctx, 1)


def test_partner_energies_skip_the_seed_level():
    # the transformed family starts at 16 alpha^2: the 4 alpha^2 level is gone
    ctx = DarbouxContext(WellConfig(1.0))
    energies = [transformed_eigenpair(ctx, k)[0] for k in range(2, 6)]
    assert energies == [16.0, 36.0, 64.0, 100.0]
    assert ctx.omega_sq == 4.0 and ctx.omega_sq not in energies
