import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polygas import (
    ConfigError,
    EulerProfile,
    ProblemError,
    invert_mass_coordinate,
    make_initial_layer,
    mass_coordinate,
    problem_library,
)
from polygas.problems import _PROBLEMS


def test_mass_coordinate_unit_density_sphere():
    # cell mass = rho * (r_hi^3 - r_lo^3) / 3 exactly, so s = [0, 1/3, 8/3]
    profile = EulerProfile(r_nodes=np.array([0.0, 1.0, 2.0]),
                           rho=1.0, u=0.0, p=1.0, gamma=5.0 / 3.0)
    mesh = mass_coordinate(profile, n=2)
    assert mesh.s == pytest.approx([0.0, 1.0 / 3.0, 8.0 / 3.0], abs=1e-15)


def test_mass_coordinate_plane_constant_density():
    profile = EulerProfile(r_nodes=np.array([0.0, 0.5, 1.0]),
                           rho=2.0, u=0.0, p=1.0, gamma=1.4)
    mesh = mass_coordinate(profile, n=0)
    assert mesh.s == pytest.approx([0.0, 1.0, 2.0], abs=1e-15)


def test_uniform_problem_fields_are_constant():
    profile, params = problem_library("uniform", rho0=2.5, p0=0.3, u0=0.1, cells=12)
    layer = make_initial_layer(profile, params.n)
    assert np.all(layer.rho == 2.5)
    assert np.all(layer.p == 0.3)
    assert np.all(layer.u == 0.1)
    assert np.all(layer.eps == pytest.approx(0.3 / (0.4 * 2.5), rel=1e-15))


def test_sod_initial_energies():
    profile, params = problem_library("sod", cells=10)
    layer = make_initial_layer(profile, params.n)
    # epsilon = p / ((gamma - 1) rho): left 1/(0.4*1)=2.5, right 0.1/(0.4*0.125)=2.0
    assert layer.eps[0] == pytest.approx(2.5, rel=1e-15)
    assert layer.eps[-1] == pytest.approx(2.0, rel=1e-15)
    assert params.visc_nu > 0.0


def test_smooth_pulse_amplitude_is_attained():
    # cells=40 puts a node exactly at the pulse center, so max|u| == amplitude
    profile, params = problem_library("smooth_pulse", amplitude=0.07, cells=40)
    layer = make_initial_layer(profile, params.n)
    assert np.max(np.abs(layer.u)) == pytest.approx(0.07, rel=1e-14)
    assert layer.u[0] == 0.0 and layer.u[-1] == 0.0


@pytest.mark.parametrize("name,n", [
    ("uniform", 0), ("uniform", 1), ("uniform", 2),
    ("smooth_pulse", 0), ("sod", 0), ("expansion", 0),
])
def test_library_layers_are_mass_consistent(name, n):
    options = {"r_min": 0.1} if n > 0 else {}
    profile, _ = problem_library(name, cells=30, **options)
    layer = make_initial_layer(profile, n)
    assert layer.mass_consistency_defect(n) < 1e-13


def test_invert_mass_coordinate_round_trip():
    profile, params = problem_library("sod", cells=8)
    mesh = mass_coordinate(profile, params.n)
    r = invert_mass_coordinate(profile, params.n, mesh.s)
    assert r == pytest.approx(profile.r_nodes, abs=1e-14)
    # interior probe: halfway in mass through the first cell
    r_mid = invert_mass_coordinate(profile, params.n, np.array([0.5 * mesh.s[1]]))
    assert profile.r_nodes[0] < r_mid[0] < profile.r_nodes[1]


def test_a_sphere_s_mass_radii_are_the_floats_whose_cubes_are_nearest():
    """For n = 2 each radius is the float whose cube is nearest its target
    3 s / rho, exactly, also for the tiny targets near the centre, where
    numpy's t ** (1/3) is several ulps off."""
    profile = EulerProfile(r_nodes=np.linspace(0.0, 1.0, 3), rho=1.0, u=0.0, p=1.0,
                           gamma=5.0 / 3.0, density_segments=((0.0, 1.0),))
    x = np.linspace(0.0, 1.0, 2001)[1:]
    s = np.concatenate((x / 3.0, np.ldexp(x, -40) / 3.0)).reshape(2, -1)
    r = invert_mass_coordinate(profile, 2, s)
    assert r.shape == s.shape
    for radius, target in zip(r.ravel().tolist(), (s * 3.0).ravel().tolist()):
        gap = [abs(Fraction(math.nextafter(radius, toward)) ** 3 - Fraction(target))
               for toward in (0.0, math.inf)]
        assert abs(Fraction(radius) ** 3 - Fraction(target)) < min(gap)


def test_invert_mass_coordinate_needs_density_segments():
    profile = EulerProfile(r_nodes=np.linspace(0.0, 1.0, 5),
                           rho=lambda r: 1.0 + r, u=0.0, p=1.0, gamma=1.4)
    with pytest.raises(ProblemError, match="segment"):
        invert_mass_coordinate(profile, 0, np.array([0.1]))


def test_problem_library_rejects_unknowns():
    with pytest.raises(ConfigError, match="unknown problem"):
        problem_library("vortex")
    with pytest.raises(ConfigError, match="unknown option"):
        problem_library("uniform", swirl=3)
    with pytest.raises(ProblemError, match="width"):
        problem_library("smooth_pulse", width=0.0)


def test_initial_layer_rejects_bad_profiles():
    bad_rho = EulerProfile(r_nodes=np.linspace(0.0, 1.0, 4),
                           rho=-1.0, u=0.0, p=1.0, gamma=1.4)
    with pytest.raises(ProblemError, match="density"):
        make_initial_layer(bad_rho, 0)
    negative_r = EulerProfile(r_nodes=np.linspace(-0.5, 0.5, 4),
                              rho=1.0, u=0.0, p=1.0, gamma=1.4)
    with pytest.raises(ProblemError, match="negative radius"):
        make_initial_layer(negative_r, 1)


def test_a_negative_radius_is_spelled_as_a_plain_float():
    negative_r = EulerProfile(r_nodes=np.linspace(-0.5, 0.5, 4),
                              rho=1.0, u=0.0, p=1.0, gamma=1.4)
    with pytest.raises(ProblemError) as info:
        make_initial_layer(negative_r, 1)
    assert "negative radius -0.5 " in str(info.value) and "np.float64(" not in str(info.value)


def test_too_few_cells_rejected():
    with pytest.raises(ProblemError, match="cells"):
        problem_library("uniform", cells=1)


@pytest.mark.parametrize("cells", (10.0, "10"))
def test_cells_of_the_wrong_type_are_a_problem_error(cells):
    with pytest.raises(ProblemError, match="cells"):
        problem_library("smooth_pulse", cells=cells)


@pytest.mark.parametrize("ends", ({"r_min": "0"}, {"r_max": None}, {"r_max": math.inf},
                                  {"r_min": math.nan}, {"r_min": -1.7e308, "r_max": 1.7e308}))
def test_a_radial_interval_needs_finite_real_ends_a_finite_width_apart(ends):
    """A str or None end was a raw TypeError, an infinite end gave numpy warnings
    and nodes [nan, inf, ...], an overflowing width blamed the node order and a
    nan end called the interval empty."""
    with pytest.raises(ProblemError,
                       match=r"^radial interval \[.*\] needs finite ends a finite width apart$"):
        problem_library("uniform", **ends)


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_a_profile_rejects_non_finite_radii(bad):
    with pytest.raises(ProblemError, match="^node radii must be finite$"):
        EulerProfile(r_nodes=[0.0, 0.5, bad], rho=1.0, u=0.0, p=1.0, gamma=1.4)


def test_a_field_of_the_wrong_shape_or_non_finite_is_a_problem_error():
    r = np.linspace(0.0, 1.0, 5)
    wrong_shape = EulerProfile(r_nodes=r, rho=np.ones(3), u=0.0, p=1.0, gamma=1.4)
    with pytest.raises(ProblemError, match=r"^field 'rho' has shape \(3,\), expected \(4,\)$"):
        make_initial_layer(wrong_shape, 0)
    non_finite = EulerProfile(r_nodes=r, rho=1.0, u=lambda x: np.where(x > 0.5, np.inf, 0.0),
                              p=1.0, gamma=1.4)
    with pytest.raises(ProblemError, match="^field 'u' evaluates to non-finite values$"):
        make_initial_layer(non_finite, 0)


def test_readme_and_docstring_name_every_library_problem():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Problems:\s*(.*?)\(each", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(_PROBLEMS)
    assert re.findall(r"^    (\w+) +:", problem_library.__doc__, re.M) == list(_PROBLEMS)
