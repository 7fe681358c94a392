"""Acceptance checks: every claim the verification suite makes, one test each.

Each test pulls its result from the session-scoped run (h = 1e-3, default
tolerances), prints the PASS/FAIL line with the measured defect, and asserts.
Run with ``pytest -s tests/test_acceptance.py`` to see the numbers.
"""

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


def test_isoperimetric_motion_is_an_infinitesimal_darboux_transform(
        acceptance_results):
    _check(acceptance_results, "iso-cross-ratio")


def test_transform_stacking_and_motion_integration_build_the_same_sheet(
        acceptance_results):
    _check(acceptance_results, "pipelines-agree")


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
