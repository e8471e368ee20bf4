"""The package's public names."""

import qko


def test_public_names_are_the_workflow():
    assert sorted(qko.__all__) == [
        "AbelianGroup", "Cyclo", "DimensionMismatchError", "GroupParams",
        "InvalidParamsError", "KGroupReport", "Mod2Z", "NotRationalError",
        "NotReducedError", "NotVirtualError", "SpaceForm", "StructureMismatchError",
        "Subgroup", "VirtualCharacter", "ZeroInverseError", "delta_power", "eta_pair",
        "irreducible_labels", "ko_group", "ksp_group", "lens_space", "quaternion_space",
        "quotient_group", "theta",
    ]
    for name in qko.__all__:
        assert getattr(qko, name) is not None, name


def test_removed_names_stay_importable_from_their_modules():
    from qko.groups import c_constant, fs_indicator  # noqa: F401
    from qko.oracles import decompose, gamma_matrix, inner_product  # noqa: F401
    from qko.ktheory import ko_order_formula, ksp_order_formula, structure_checks  # noqa: F401
