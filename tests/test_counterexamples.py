"""Sharpness-family generators and their decay rates."""

import numpy as np
import pytest

from schrodlab import counterexamples
from schrodlab.counterexamples import (DecayStudy, ResolvabilityError,
                                       SequenceSpec, base_profile,
                                       concentrated_profile, decay_study,
                                       generate)
from schrodlab.field import ball, l2_norm, make_grid, masked_energy
from schrodlab.transform import fresnel_map, propagate

GRID = make_grid(1, 15.0, 4096)


def test_base_profile_unit_norm():
    for profile in ("gaussian", "bump"):
        g = base_profile(GRID, profile)
        assert abs(l2_norm(g) - 1.0) <= 1e-10


def test_concentrating_k1_is_chirped_profile():
    spec = SequenceSpec("concentrating", horizon=1.0)
    u1 = generate(spec, GRID, 1)
    g = concentrated_profile(GRID, spec, 1)
    assert np.abs(np.abs(u1.values) - np.abs(g.values)).max() <= 1e-12


def test_concentrating_modulus_matches_scaled_profile():
    spec = SequenceSpec("concentrating", x_prime=0.5)
    k = 4
    u_k = generate(spec, GRID, k)
    x = GRID.axis_nodes()
    profile = np.exp(-(k * (x - 0.5)) ** 2 / 2.0)
    profile = np.sqrt(k) * profile
    profile /= np.sqrt(np.sum(profile ** 2) * GRID.spacing)
    assert np.abs(np.abs(u_k.values) - profile).max() <= 1e-10


def test_unit_norm_all_families():
    for spec in (SequenceSpec("concentrating"), SequenceSpec("modulated")):
        for k in (1, 2, 8):
            u_k = generate(spec, GRID, k)
            assert abs(l2_norm(u_k) - 1.0) <= 1e-8


def test_modulated_k0_is_chirped_profile():
    spec = SequenceSpec("modulated")
    u0 = generate(spec, GRID, 0)
    g = base_profile(GRID, "gaussian")
    assert np.abs(np.abs(u0.values) - np.abs(g.values)).max() <= 1e-12


def test_generate_refuses_the_time_reversed_family():
    with pytest.raises(ValueError, match="decay_study"):
        generate(SequenceSpec("time_reversed"), GRID, 1)


def test_resolvability_rejections():
    spec = SequenceSpec("concentrating")
    with pytest.raises(ResolvabilityError, match="exceed 4h"):
        generate(spec, GRID, 64)
    coarse = make_grid(1, 15.0, 64)
    with pytest.raises(ResolvabilityError, match="Nyquist"):
        generate(SequenceSpec("modulated"), coarse, 100)
    with pytest.raises(ResolvabilityError, match="no valid route"):
        decay_study(SequenceSpec("time_reversed"), make_grid(1, 3.0, 64), [1])


class TestBallEnergies:
    """The time-reversed family's one definition: the flow of g_k, read on
    whichever route resolves each time."""

    G_4 = concentrated_profile(GRID, SequenceSpec("time_reversed"), 4)
    INSIDE = ball(0.0, 2.0)

    @staticmethod
    def refuse(*args):
        raise AssertionError("wrong route")

    def test_negative_time_on_the_direct_route_is_the_backward_flow(self, monkeypatch):
        monkeypatch.setattr(counterexamples, "fresnel_map", self.refuse)
        [energy] = counterexamples._ball_energies(self.G_4, np.array([-0.25]),
                                                  self.INSIDE)
        assert energy == pytest.approx(
            masked_energy(propagate(self.G_4, -0.25), self.INSIDE), rel=1e-12)

    def test_negative_time_on_the_fresnel_route_is_the_map_at_its_modulus(
            self, monkeypatch):
        monkeypatch.setattr(counterexamples, "propagate", self.refuse)
        [energy] = counterexamples._ball_energies(self.G_4, np.array([-0.5]),
                                                  self.INSIDE)
        assert energy == masked_energy(fresnel_map(self.G_4, 0.5), self.INSIDE)


class TestDecayStudy:
    def test_concentrating_rate(self):
        spec = SequenceSpec("concentrating", horizon=1.0, r1=1.0, r2=1.0)
        study = decay_study(spec, GRID, [1, 2, 4, 8, 16, 32])
        fit = study.fits["terminal_inside"]
        assert fit.slope == pytest.approx(-1.0, abs=0.3)
        outside = [row["outside_initial"] for row in study.rows]
        assert all(b < a for a, b in zip(outside, outside[1:]))

    def test_concentrating_doubling_strictly_decreases(self):
        spec = SequenceSpec("concentrating")
        study = decay_study(spec, GRID, [4, 8, 16, 32])
        inside = [row["terminal_inside"] for row in study.rows]
        assert all(b < a for a, b in zip(inside, inside[1:]))

    def test_modulated_escape_and_constant_weight(self):
        spec = SequenceSpec("modulated", r2=1.0, weight_amplitude=1.0)
        study = decay_study(spec, GRID, [0, 1, 2, 4, 8, 16, 32])
        weighted = [row["weighted"] for row in study.rows]
        base = weighted[0]
        assert all(abs(w - base) <= 0.01 * base for w in weighted)
        inside = [row["terminal_inside"] for row in study.rows]
        assert inside[-1] <= 1e-20 * inside[0]
        # once the translated spectral bump has left the profile mass,
        # doubling k keeps shrinking the ball energy
        assert all(b < a for a, b in zip(inside[:5], inside[1:5]))

    def test_time_reversed_both_quantities_decrease(self):
        spec = SequenceSpec("time_reversed", x_dprime=0.0, r1=1.0, r2=2.0,
                            s1=0.5, s2=0.5)
        study = decay_study(spec, GRID, [1, 2, 4, 8, 16, 32])
        outside = [row["outside_at_s1"] for row in study.rows]
        integral = [row["time_integral_inside"] for row in study.rows]
        assert all(b < a for a, b in zip(outside, outside[1:]))
        assert all(b < a for a, b in zip(integral, integral[1:]))

    def test_time_integral_stable_under_slice_refinement(self):
        spec = SequenceSpec("time_reversed", x_dprime=0.0, r2=2.0)
        coarse = decay_study(spec, GRID, [8], time_slices=48)
        fine = decay_study(spec, GRID, [8], time_slices=96)
        a = coarse.rows[0]["time_integral_inside"]
        b = fine.rows[0]["time_integral_inside"]
        assert abs(a - b) <= 5e-3 * b

    def test_time_reversed_spreads_once_per_k(self, monkeypatch):
        spreads = []
        real = counterexamples._spread_radii

        def counted(f):
            spreads.append(f)
            return real(f)

        monkeypatch.setattr(counterexamples, "_spread_radii", counted)
        spec = SequenceSpec("time_reversed", x_dprime=0.0, r2=2.0)
        decay_study(spec, GRID, [1, 2, 4], time_slices=48)
        assert len(spreads) == 3

    def test_rejects_too_few_slices(self):
        spec = SequenceSpec("time_reversed")
        with pytest.raises(ValueError):
            decay_study(spec, GRID, [1], time_slices=16)

    def test_concentrating_ignores_time_slices(self):
        # only time_reversed integrates over time, so only it reads the count
        spec = SequenceSpec("concentrating")
        reference = decay_study(spec, GRID, [1, 2, 4])
        for slices in (0, -5):
            assert decay_study(spec, GRID, [1, 2, 4], time_slices=slices) == reference

    def test_repeated_k_leaves_no_slope_to_fit(self):
        # k = 1, 1 used to reach the fit and fail there as "SVD did not converge"
        with pytest.raises(ValueError, match="two distinct abscissae"):
            decay_study(SequenceSpec("concentrating"), GRID, [1, 1])

    def test_rejects_nonpositive_s2(self):
        # the inside-ball energy is integrated over (0, S2): S2 <= 0 used to
        # yield negative or zero integrals
        for s2 in (0.0, -1.0):
            with pytest.raises(ValueError, match="S2 > 0"):
                SequenceSpec("time_reversed", s2=s2)

    def test_returns_study_type(self):
        spec = SequenceSpec("modulated")
        study = decay_study(spec, GRID, [0, 1])
        assert isinstance(study, DecayStudy)
        assert study.family == "modulated"
