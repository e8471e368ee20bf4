"""The package's public names, its records and what importing the CLI loads."""

import ast
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qko
from qko.abelian import AbelianGroup
from qko.cyclotomic import Cyclo
from qko.eta import quaternion_space
from qko.groups import FpfRep, GroupElement, GroupParams, InvalidParamsError, VirtualCharacter
from qko.ktheory import ksp_group, structure_checks


def test_public_names_are_the_workflow():
    assert sorted(qko.__all__) == [
        "AbelianGroup", "Cyclo", "DimensionMismatchError", "GroupParams",
        "InvalidParamsError", "KGroupReport", "NotRationalError",
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


def test_cli_import_loads_no_typing_contextlib_dataclasses_or_inspect():
    src = str(Path(qko.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import qko.cli; "
             "print(*(m in sys.modules for m in "
             "('typing', 'contextlib', 'dataclasses', 'inspect', 'qko.verify')))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"] * 4 + ["True"]


RECORD_FIELDS = {
    "GroupParams": ("ell",),
    "GroupElement": ("a", "b"),
    "FpfRep": ("params", "summands"),
    "SpaceForm": ("params", "subgroup", "tau", "z_factor"),
    "EtaMatrix": ("row_labels", "col_labels", "entries"),
    "KGroupReport": ("kind", "params", "index", "group", "a_block", "b_block", "order",
                     "ahss_bound", "matrix", "a_matrix", "b_matrix", "splitting", "checks"),
    "Check": ("name", "passed", "expected", "actual"),
}


def test_records_are_immutable():
    params = GroupParams(8)
    report = ksp_group(2, params)
    records = [params, GroupElement(1, 0), FpfRep(params, (1, 3)), quaternion_space(params, 2),
               report.matrix, report, structure_checks(report)[0]]
    assert [type(record).__name__ for record in records] == list(RECORD_FIELDS)
    for record in records:
        fields = RECORD_FIELDS[type(record).__name__]
        assert type(record)._fields == fields
        for name in (fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert type(report)._field_defaults == {"checks": ()}


COPIERS = {f"pickle{protocol}": lambda value, protocol=protocol:
           pickle.loads(pickle.dumps(value, protocol))
           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)}
COPIERS.update(copy=copy.copy, deepcopy=copy.deepcopy)


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_values_survive_pickle_and_copy(copier):
    # so that they can cross a process boundary, as concurrent workers need
    params = GroupParams(8)
    values = [Cyclo(8, [Fraction(1, 2), 0, -3, Fraction(2, 3)]),
              VirtualCharacter(params, {"kappa1": 2, "gamma1": -1}), AbelianGroup((2, 4)),
              ksp_group(2, params), GroupElement(1, 0), quaternion_space(params, 2)]
    for value in values:
        copied = copier(value)
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value), value
    with pytest.raises(AttributeError):
        copier(values[0]).den = 2


def test_replace_on_a_checked_record_runs_its_checks():
    params = GroupParams(8)
    with pytest.raises(InvalidParamsError):
        params._replace(ell=12)
    with pytest.raises(ValueError, match="is even"):
        FpfRep(params, (1,))._replace(summands=(2,))
    with pytest.raises(ValueError, match="z_factor must be >= 0"):
        quaternion_space(params, 2)._replace(z_factor=-1)
    with pytest.raises(TypeError, match="not an int"):
        FpfRep(params, (1,))._replace(summands=[3.0])
    assert FpfRep(params, (1,))._replace(summands=[3]).summands == (3,)


def test_no_module_imports_a_name_it_does_not_use():
    """What a linter's unused-import rule would check: every name that a module
    of the package imports is read in that module or listed in its ``__all__``."""
    unused = []
    for path in sorted(Path(qko.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
