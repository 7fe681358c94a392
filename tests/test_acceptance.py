"""Acceptance checks: every claim the verification suite makes, one test each.

Each test pulls its result from the session-scoped run (h = 1e-3, default
tolerances), prints the PASS/FAIL line with the measured defect, and asserts.
Run with ``pytest -s tests/test_acceptance.py`` to see the numbers.
"""
import math
from collections import Counter

import numpy as np
import pytest

from darbouxflow import arclength_darboux, darboux, equivalence, run_suite, verification
from darbouxflow.errors import CurveError

CHECK_NAMES = [
    "rotated-circle-darboux",
    "cross-ratio-constancy",
    "lambda-laws",
    "lemma-identities",
    "rotating-hexagon",
    "mkdv-generic",
    "iso-cross-ratio",
    "pipelines-agree",
    "frameless-identity",
    "frame-compatibility",
    "figure-distinct-polarizations",
    "discrete-arclength",
]

# The [verify] names: a check name, or a check name plus a suffix.
TOLERANCE_NAMES = [
    "rotated-circle-darboux.error", "rotated-circle-darboux.ratio-min",
    "cross-ratio-constancy",
    "lambda-laws.constant", "lambda-laws.evolution",
    "lemma-identities",
    "rotating-hexagon.shape", "rotating-hexagon.edges", "rotating-hexagon.mkdv",
    "mkdv-generic",
    "iso-cross-ratio", "iso-cross-ratio.imag",
    "pipelines-agree", "pipelines-agree.ratio-min", "pipelines-agree.ratio-max",
    "frameless-identity",
    "frame-compatibility",
    "figure-distinct-polarizations.cross-ratio",
    "figure-distinct-polarizations.distance-min",
    "discrete-arclength", "discrete-arclength.growth-min",
]


def _check(acceptance_results, name):
    res = acceptance_results[name]
    print(res.line())
    assert res.passed, res.line()


def test_suite_covers_exactly_the_documented_checks(acceptance_results):
    assert sorted(acceptance_results) == sorted(CHECK_NAMES)
    assert len(CHECK_NAMES) == 12


def test_circle_transform_is_a_rotated_circle_and_converges_at_fourth_order(
        acceptance_results):
    _check(acceptance_results, "rotated-circle-darboux")


def test_tangential_cross_ratio_is_constant_along_a_transform_pair(
        acceptance_results):
    _check(acceptance_results, "cross-ratio-constancy")


def test_separation_invariants_match_their_closed_forms(acceptance_results):
    _check(acceptance_results, "lambda-laws")


def test_pointwise_tangent_identities_hold_on_a_generic_pair(
        acceptance_results):
    _check(acceptance_results, "lemma-identities")


def test_hexagon_under_constant_potential_rotates_rigidly(acceptance_results):
    _check(acceptance_results, "rotating-hexagon")


def test_vertex_angles_satisfy_the_semidiscrete_potential_mkdv_equation(
        acceptance_results):
    _check(acceptance_results, "mkdv-generic")


def test_mkdv_generic_fails_on_a_perturbed_square():
    # On the coarse grid the square and the heptagon read about 7e-7 and
    # 5e-7, close to the 1e-6 default, so the bound is raised to 1e-4 to
    # leave the square's potential as the only thing that can fail.
    art = verification.Artifacts(1e-2)

    def mkdv_generic():
        results = run_suite(overrides={"mkdv-generic": 1e-4}, artifacts=art)
        return {r.name: r for r in results}["mkdv-generic"]

    assert mkdv_generic().passed
    square = art.square_motion
    square.theta[2] += 1e-3 * square.sheet.grid.values()
    result = mkdv_generic()
    assert not result.passed, result.line()


def test_isoperimetric_motion_is_an_infinitesimal_darboux_transform(
        acceptance_results):
    _check(acceptance_results, "iso-cross-ratio")


def test_transform_stacking_and_motion_integration_build_the_same_sheet(
        acceptance_results):
    _check(acceptance_results, "pipelines-agree")


def test_pipelines_halving_ratios_hold_off_the_default_step():
    # the hexagon is a rigid rotation whose h/2 sup sits on round-off; a ratio
    # taken on it read 28.1 at this step, against the ratio-max of 20
    result = next(r for r in run_suite(h=9e-4) if r.name == "pipelines-agree")
    assert result.passed, result.line()
    assert [label for label, *_ in result.bounds if "ratio" in label] == [
        "square halving ratio", "square halving ratio",
        "heptagon halving ratio", "heptagon halving ratio"]


def test_run_suite_refuses_a_step_its_artifacts_do_not_have(artifacts):
    # the checks would run at the artifacts' step, not at the one asked for
    assert len(run_suite(h=artifacts.h, artifacts=artifacts)) == len(CHECK_NAMES)
    with pytest.raises(ValueError, match=r"^h = 0.01 is not the artifacts' step 0.001$"):
        run_suite(h=1e-2, artifacts=artifacts)


def test_position_sheet_satisfies_the_frameless_identity(acceptance_results):
    _check(acceptance_results, "frameless-identity")


def test_frame_evolution_equations_are_cross_compatible(acceptance_results):
    _check(acceptance_results, "frame-compatibility")


def test_two_polarizations_of_one_circle_give_distinct_transforms(
        acceptance_results):
    _check(acceptance_results, "figure-distinct-polarizations")


def test_flow_preserves_discrete_arclength_exactly_when_seeded_that_way(
        acceptance_results):
    _check(acceptance_results, "discrete-arclength")


def test_the_half_step_twin_skips_the_refusal_its_parent_made():
    # Artifacts(6e-17) sizes [0, 2 pi] at h/2 and accepts; the same refusal
    # at the twin's own step would size it at h/4, which numpy cannot
    art = verification.Artifacts(6e-17)
    with pytest.raises(CurveError, match="^grid node count is too large to allocate$"):
        verification.Artifacts(3e-17)
    assert vars(art.half) == {"h": 3e-17} and art.half is art.half


def test_circle_arclength_pair_is_the_figure_transform(artifacts):
    # the arc-length seed at angle pi lands on the figure's seed -1 to round-off
    base, transform = artifacts.circle_arclength_pair
    assert base is artifacts.circle and transform is artifacts.circle_transform
    solved = arclength_darboux(artifacts.circle, 0.25, math.pi)
    assert np.abs(solved.points - transform.points).max() <= 1e-15


def test_run_suite_builds_nothing_twice(monkeypatch):
    """No two motions share (vertices, w0, grid) and no two Riccati solves
    share (source points, source polarization, mu, seed): each artifact is
    built once and shared by every check that reads it.  The totals are
    pinned too: the h/2 twin solves only the circle transform and the two
    motions a halving ratio reads, not the figure's t2."""
    motions, solves, steps = Counter(), Counter(), []
    integrate, solve = verification.integrate_motion, darboux.riccati_solve

    def recorded_motion(vertices, w0, n0, grid):
        motions[np.asarray(vertices, dtype=complex).tobytes(), w0, grid] += 1
        return integrate(vertices, w0, n0, grid)

    def recorded_solve(source, mu, y0):
        # seeds equal to 1e-12 count as one: -1 + 2.4e-16j is the seed -1
        m = np.asarray(source.m, dtype=float)
        seed = complex(round(y0.real, 12), round(y0.imag, 12))
        solves[source.points.tobytes(), m.tobytes(), mu, seed] += 1
        steps.append(source.grid.count - 1)
        return solve(source, mu, y0)

    # equivalence is patched too, so a motion integrated there would count
    for module in (verification, equivalence):
        monkeypatch.setattr(module, "integrate_motion", recorded_motion, raising=False)
    monkeypatch.setattr(darboux, "riccati_solve", recorded_solve)
    run_suite(h=1e-2)
    assert (len(steps), sum(steps), sum(motions.values())) == (37, 6461, 6)
    twice = ([key[1:] for key, n in motions.items() if n > 1],
             [key[2:] for key, n in solves.items() if n > 1])
    assert twice == ([], [])


@pytest.mark.parametrize("position", [0, 1, 3], ids=["circle", "line", "figure m2"])
def test_a_nan_defect_fails_its_check_in_any_position(monkeypatch, artifacts, position):
    # cross-ratio-constancy folds six defects; a NaN in any one must fail it
    transform = [artifacts.circle_transform, artifacts.line_pair[1],
                 artifacts.mismatched_pair[1], artifacts.figure[2]][position]
    defect = verification.cross_ratio_defect
    monkeypatch.setattr(verification, "cross_ratio_defect", lambda base, t, mu: (
        math.nan if t is transform else defect(base, t, mu)))
    monkeypatch.setattr(verification, "_CHECKS",
                        {"cross-ratio-constancy": verification._check_cross_ratio})
    [result] = run_suite(artifacts=artifacts)
    assert not result.passed, result.line()
    assert "nan" in result.line()


def test_figure_check_fails_when_the_svg_loses_its_marker(monkeypatch, artifacts):
    svg_text = verification.svg_text
    monkeypatch.setattr(verification, "svg_text", lambda curves, colors, markers: (
        svg_text(curves, colors=colors)))
    monkeypatch.setattr(verification, "_CHECKS", {
        "figure-distinct-polarizations": verification._check_figure})
    [result] = run_suite(artifacts=artifacts)
    assert not result.passed, result.line()
    assert "svg markers 0 == 1" in result.line()


@pytest.fixture(scope="module")
def check_entries(artifacts):
    """Every check's (label, measured, relation, key, default) entries on the
    session artifacts, computed once."""
    return {name: check(artifacts) for name, check in verification._CHECKS.items()}


def test_checks_read_exactly_the_documented_tolerance_names(check_entries):
    names = {name + key for name, entries in check_entries.items()
             for *_, key, _ in entries if key is not None}
    assert sorted(names) == sorted(TOLERANCE_NAMES)


@pytest.mark.parametrize("tol_name", TOLERANCE_NAMES)
def test_every_named_bound_can_fail(monkeypatch, artifacts, check_entries, tol_name):
    """Overriding one name to the far side of the values it bounds fails its
    own check and no other.  run_suite resolves the override against the
    entries computed once, so no check runs 21 times."""
    check = tol_name.split(".")[0]
    bounded = [(measured, relation) for _, measured, relation, key, _ in check_entries[check]
               if key is not None and check + key == tol_name]
    assert bounded
    measured = [m for m, _ in bounded]
    upper = {relation[0] for _, relation in bounded} == {"<"}
    value = min(measured) / 10.0 if upper else max(measured) * 10.0
    assert 0.0 < value < math.inf
    monkeypatch.setattr(verification, "_CHECKS",
                        {name: lambda art, e=entries: e for name, entries in check_entries.items()})
    results = run_suite(overrides={tol_name: value}, artifacts=artifacts)
    assert [r.name for r in results if not r.passed] == [check]
