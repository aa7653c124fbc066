"""The package's public names: the union of the module lists, and no more."""

import calibkit
from calibkit import calibrations, critical, eds, exterior, grassmann

PUBLIC_NAMES = {
    "__version__",
    # exterior
    "AltForm", "SkewMap", "canonical_indices", "evaluate", "first_jet", "form_from_json",
    "form_inner", "form_to_json", "format_form", "hodge_star", "interior", "parse_form",
    "so_action", "so_action_matrix", "sort_index", "stack_values", "wedge",
    # critical
    "CriticalityReport", "FormModule", "OrientedPlane", "SffElement", "annihilator_check",
    "cousin_matrix", "criticality_reports", "is_critical", "phi_module", "qr_fix",
    "rho_closed", "rho_product", "sff_space", "stabilizer_dim", "stabilizer_kernel",
    "subspace_distance",
    # calibrations
    "CalibrationSpec", "CliffordModel", "LieAlgebraData", "SpecialLagrangian",
    "associative_form", "build_calibration", "build_clifford", "cartan_three_form",
    "cayley_form", "coassociative_form", "octonion_left_mult", "special_lagrangian",
    "su3_principal_plane", "su_lie_algebra",
    # grassmann
    "AscendResult", "CriticalCatalog", "SearchParams", "ascend", "comass_search",
    "critical_spectrum", "random_plane", "trial_seed",
    # eds
    "FlagReport", "cartan_test", "hodge_dual_ideal_check", "integral_element_codim", "polar_space",
}


def test_package_exports_the_module_lists():
    modules = (exterior, critical, calibrations, grassmann, eds)
    assert len(calibkit.__all__) == len(set(calibkit.__all__))
    assert set(calibkit.__all__) == set().union(*(m.__all__ for m in modules)) | {"__version__"}
    assert set(calibkit.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 61
    for name in calibkit.__all__:
        assert hasattr(calibkit, name)
