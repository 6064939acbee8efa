"""Acceptance gate: one test per shipped criterion, C01 through C10.

Each test drives fracpm.verify.run_criterion and prints exactly one
PASS/FAIL line (plus the measured details when a criterion fails, so a red
run is diagnosable from the log alone).  The assertions are strict: a
criterion that misses its pinned tolerance fails here, with no loosening.
"""

import json
import math

from fracpm import verify


def run_and_report(cid):
    result = verify.run_criterion(cid)
    tag = "PASS" if result["passed"] else "FAIL"
    print(f"\n{cid} {tag} ({result['runtime_s']:.2f} s)  {result['title']}")
    if not result["passed"]:
        print(f"{cid} details: {json.dumps(result['details'], default=str)}")
    return result


def check(cid):
    result = run_and_report(cid)
    assert result["passed"], f"{cid} failed: {result['details']}"


def test_c01_spectral_vs_modesum_fractional_derivative():
    check("C01")


def test_c02_step_field_singular_exponent_and_envelope():
    check("C02")


def test_c03_circle_singular_exponents():
    check("C03")


def test_c04_curvature_weight_zero_sign_and_routes():
    check("C04")


def test_c05_diffusion_coefficient_exponent_and_concavity():
    check("C05")


def test_c06_pure_step_is_stationary():
    check("C06")


def test_c07_supnorm_contraction_and_mean_conservation():
    check("C07")


def test_c08_deflated_spectral_gap_positive_and_grid_stable():
    check("C08")


def test_c09_nonlinear_decay_rate_matches_gap():
    check("C09")


def test_c10_constant_coefficient_spectrum():
    check("C10")


def test_c09_reports_the_schemes_own_rate():
    """Report only: backward Euler damps a mode of rate gamma by
    1 / (1 + gamma dt), so the fit is compared with ln(1 + gamma dt) / dt
    too. Both details are present and identical on a rerun."""
    first, second = (verify.run_criterion("C09")["details"] for _ in range(2))
    assert first == second
    dt = 2e-3
    assert math.isclose(first["discrete_rate"], math.log1p(first["gamma"] * dt) / dt)
    gap = abs(first["fitted_rate"] - first["discrete_rate"]) / first["discrete_rate"]
    assert first["relative_gap_discrete"] == gap < first["relative_gap"]
