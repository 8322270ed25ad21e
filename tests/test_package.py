"""The package exports exactly its submodules' public names, and the commands reach them."""

import ast
import contextlib
import functools
import inspect
import io
import sys
from pathlib import Path

import pytest

import affinedim
from affinedim import cli, cocycle, dimension, domination, errors, linalg, measure

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# public functions that no command runs, each with the acceptance criterion
# that exercises the construction of the paper it implements
NOT_RUN_BY_COMMANDS = {
    "strong_stable_bundle": "test_criterion_05_bundle_growth_bound_stable",
    "bundle_growth_ratios": "test_criterion_05_bundle_growth_bound_stable",
    "smallest_principal_angle": "test_criterion_05_bundle_growth_bound_stable",
    "principal_angle_distance": "test_criterion_06_furstenberg_degenerate_and_stationary",
    "lift_ifs": "test_criterion_10_lift_construction",
    "self_affinity_check": "test_criterion_11_self_affinity_boxes",
}

# public methods and properties of the exported classes that no command runs,
# each with the criterion that runs it or the reason it stays
METHODS_NOT_RUN_BY_COMMANDS = {
    "SubspaceFrame.from_span": "test_criterion_05_bundle_growth_bound_stable, "
                               "through strong_stable_bundle",
}

# (importer, source) -> the private names the importer takes from the source
# module; each couples the two modules through a name the source keeps to itself
PRIVATE_IMPORTS = {
    ("cli", "dimension"): {"_domination_block", "_spectrum_block", "_tag"},
    ("config", "dimension"): {"_check_fiber_entropy"},
    ("domination", "cocycle"): {"_check_word", "_propagate"},
    ("measure", "cocycle"): {"_WORD_BLOCK_SYMBOLS", "_check_weights", "_draw_words"},
    ("measure", "linalg"): {"_freeze", "_frozen"},
    ("cocycle", "linalg"): {"_freeze"},
    ("domination", "linalg"): {"_freeze"},
}


def test_package_all_is_the_union_of_the_submodules_all():
    modules = (cocycle, dimension, domination, errors, linalg, measure)
    assert len(set(affinedim.__all__)) == len(affinedim.__all__)
    assert set(affinedim.__all__) == {name for m in modules for name in m.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(affinedim, name) is getattr(module, name), name


@pytest.fixture(scope="module")
def called():
    """The code of every Python-level call made by the commands.

    ``lyapunov``, ``domination`` and ``dim`` run on every shipped config, and
    ``validate`` once, in process with their output discarded.
    """
    argvs = [[command, "--config", str(config), "--deterministic"]
             for config in CONFIGS for command in ("lyapunov", "domination", "dim")]
    argvs.append(["validate", "--config", str(CONFIGS[0]), "--deterministic"])
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(record)
        try:
            exits = [cli.main(argv) for argv in argvs]
        finally:
            sys.setprofile(None)
    assert exits == [0] * len(argvs)
    return codes


def test_every_public_function_is_run_by_a_command_or_an_acceptance_criterion(called):
    functions = {name: getattr(affinedim, name) for name in affinedim.__all__
                 if inspect.isfunction(getattr(affinedim, name))}
    unreached = {name for name, f in functions.items() if f.__code__ not in called}
    assert sorted(unreached - NOT_RUN_BY_COMMANDS.keys()) == []
    # the list names only functions that no command runs
    assert sorted(NOT_RUN_BY_COMMANDS.keys() - unreached) == []


def _public_methods() -> dict:
    """``Class.name`` -> function of each public method, property and cached
    property that a class in ``affinedim.__all__`` defines itself."""
    methods = {}
    for name in affinedim.__all__:
        cls = getattr(affinedim, name)
        if not inspect.isclass(cls):
            continue
        for attr, member in vars(cls).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            if not attr.startswith("_") and inspect.isfunction(member):
                methods[f"{name}.{attr}"] = member
    return methods


def test_every_public_method_is_run_by_a_command_or_listed(called):
    methods = _public_methods()
    assert "IfsSystem.hull" in methods and "SubspaceFrame.complement" in methods
    unreached = {name for name, f in methods.items() if f.__code__ not in called}
    assert sorted(unreached - METHODS_NOT_RUN_BY_COMMANDS.keys()) == []
    # the list names only methods that no command runs
    assert sorted(METHODS_NOT_RUN_BY_COMMANDS.keys() - unreached) == []


def test_private_imports_between_modules_are_the_listed_ones():
    # a new private import between modules is a reviewed change to this list
    found: dict = {}
    for path in Path(affinedim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names = {a.name for a in node.names if a.name.startswith("_")}
                if names:
                    found.setdefault((path.stem, node.module), set()).update(names)
    assert found == PRIVATE_IMPORTS
