"""Darboux transformation: partner potential, intertwining, normalization."""
import math
from fractions import Fraction
from pathlib import Path

import pytest

import ptdarboux
from oracles import bracket_exact, chi, x_grid
from ptdarboux.closed_form import TrigEigenfunction
from ptdarboux.darboux import intertwine, partner_potential, transform_normalization
from ptdarboux.errors import DomainError, ParameterError
from ptdarboux.models import WellConfig, box_energy


def test_seed_energy_is_the_ground_box_level():
    # omega^2 of the partner potential is box_energy(cfg, 1) = 4 alpha^2:
    # W' + W^2 alone is 8 alpha^2 / sin^2(2 alpha x) - 4 alpha^2
    cfg = WellConfig(1.5)
    assert box_energy(cfg, 1) == 9.0
    x = 0.3
    s = math.sin(3.0 * x)
    w = -3.0 * math.cos(3.0 * x) / s
    assert partner_potential(cfg, x) == 9.0 / (s * s) + w * w + 9.0


def test_functions_on_the_well_keep_the_former_arithmetic():
    # each function takes the WellConfig itself; omega^2 and the partner
    # energies are box_energy, the same expression 4 alpha^2 k^2 as before
    for alpha in (1.0, 0.6024, 1e-8, 1e8):
        cfg = WellConfig(alpha)
        omega_sq = 4.0 * alpha * alpha
        for x in x_grid(alpha, 60, 1e-2):
            t = 2.0 * alpha * x
            w = -2.0 * alpha * math.cos(t) / math.sin(t)
            s = math.sin(2.0 * alpha * x)
            assert partner_potential(cfg, x) == 4.0 * alpha * alpha / (s * s) + w * w + omega_sq
        for k in (2, 5, 30):
            assert box_energy(cfg, k) == 4.0 * alpha * alpha * (k * k)


def test_partner_potential_open_domain():
    cfg = WellConfig(1.0)
    for bad in (0.0, cfg.length, -0.3, math.nan):
        with pytest.raises(DomainError):
            partner_potential(cfg, bad)


def test_superpotential_is_log_derivative_of_seed():
    # the partner potential is V_1 = W' + W^2 + omega^2 with the superpotential
    # W = -(d/dx) log phi_1 of the seed phi_1 = sqrt(4 alpha / pi) sin(2 alpha x):
    # W by central differences of phi_1, and W' by central differences of W
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)

        def phi(x):
            return math.sqrt(4.0 * alpha / math.pi) * math.sin(2.0 * alpha * x)

        def w(x, h=1e-5 / alpha):
            return -(phi(x + h) - phi(x - h)) / (2.0 * h) / phi(x)

        step = 1e-4 / alpha
        for fraction in (0.2, 0.3, 0.5, 0.8):
            x = fraction * cfg.length
            w_prime = (w(x + step) - w(x - step)) / (2.0 * step)
            expected = w_prime + w(x) ** 2 + box_energy(cfg, 1)
            assert abs(partner_potential(cfg, x) - expected) <= 1e-6 * expected


def test_partner_potential_collapses():
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)
        for x in x_grid(alpha, 50, 1e-2):
            expected = 8 * alpha * alpha / math.sin(2 * alpha * x) ** 2
            assert abs(partner_potential(cfg, x) - expected) <= 1e-13 * expected


def test_intertwine_annihilates_seed():
    # the seed's sine sum is empty
    cfg = WellConfig(1.0)
    for x in x_grid(1.0, 400, 1e-2):
        assert intertwine(cfg, 1, x) == 0.0


def test_intertwine_matches_stable_form():
    # naive cotangent form agrees with the Chebyshev rewrite away from walls
    for alpha in (0.5, 1.0, 2.0):
        cfg = WellConfig(alpha)
        for k in (2, 3, 7, 12):
            norm = transform_normalization(cfg, k)
            f = TrigEigenfunction(k, alpha)
            for x in x_grid(alpha, 150, 1e-2):
                assert abs(norm * intertwine(cfg, k, x) - chi(f, x)) <= 1e-12


def test_intertwine_holds_its_relative_accuracy_up_to_the_walls():
    # at alpha = 1, t = 2x is exact, and within 1e-10 L of either wall cos t
    # rounds by under 1e-19, so the bracket taken exactly from the floats
    # sin t and cos t is the value to far below 1e-15.  Measured: the sine
    # sum at most 2.0e-16 relative, the former cotangent form 1.8e-4 to
    # 1.8e24 at these points
    cfg = WellConfig(1.0)
    scale = Fraction(math.sqrt(4.0 / math.pi) * 2.0)
    for e in (1e-14, 1e-13, 1e-12, 1e-10):
        for x in (e * cfg.length, (1.0 - e) * cfg.length):
            for k in range(2, 63):
                exact = scale * bracket_exact(k, 2.0 * x)
                error = abs(Fraction(intertwine(cfg, k, x)) - exact)
                assert error <= Fraction(1e-15) * abs(exact), (e, x, k)


def test_intertwine_validation():
    cfg = WellConfig(1.0)
    with pytest.raises(ParameterError):
        intertwine(cfg, 0, 0.5)
    with pytest.raises(DomainError):
        intertwine(cfg, 2, 0.0)


def test_box_index_rule_is_stated_once():
    # models._require_box is the one box-index check of box_energy,
    # intertwine and transform_normalization
    cfg = WellConfig(1.0)
    for call in (lambda: box_energy(cfg, 0), lambda: intertwine(cfg, 0, 0.5),
                 lambda: transform_normalization(cfg, 0)):
        with pytest.raises(ParameterError, match=r"box index k must be >= 1, got 0"):
            call()
    package = Path(ptdarboux.__file__).parent
    sources = [path.read_text(encoding="utf-8") for path in package.glob("*.py")]
    assert sum(text.count("box index k must be >= 1") for text in sources) == 1


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


def test_partner_energies_skip_the_seed_level():
    # the transformed family starts at 16 alpha^2: the 4 alpha^2 level is gone
    cfg = WellConfig(1.0)
    energies = [box_energy(cfg, k) for k in range(2, 6)]
    assert energies == [16.0, 36.0, 64.0, 100.0]
    omega_sq = box_energy(cfg, 1)
    assert omega_sq == 4.0 and omega_sq not in energies
