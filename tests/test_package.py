"""The package exports exactly its submodules' public names, and the commands reach them."""

import inspect
import sys
from pathlib import Path

import affinedim
from affinedim import cli, cocycle, dimension, domination, errors, linalg, measure

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# public functions that no command runs, each with the acceptance criterion
# that exercises the construction of the paper it implements
NOT_RUN_BY_COMMANDS = {
    "sample_word": "test_criterion_05_bundle_growth_bound_stable",
    "strong_stable_bundle": "test_criterion_05_bundle_growth_bound_stable",
    "bundle_growth_ratios": "test_criterion_05_bundle_growth_bound_stable",
    "smallest_principal_angle": "test_criterion_05_bundle_growth_bound_stable",
    "principal_angle_distance": "test_criterion_06_furstenberg_degenerate_and_stationary",
    "furstenberg_step": "test_criterion_06_furstenberg_degenerate_and_stationary",
    "lift_ifs": "test_criterion_10_lift_construction",
    "self_affinity_check": "test_criterion_11_self_affinity_boxes",
}


def test_package_all_is_the_union_of_the_submodules_all():
    modules = (cocycle, dimension, domination, errors, linalg, measure)
    assert len(set(affinedim.__all__)) == len(affinedim.__all__)
    assert set(affinedim.__all__) == {name for m in modules for name in m.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(affinedim, name) is getattr(module, name), name


def test_every_public_function_is_run_by_a_command_or_an_acceptance_criterion(capsys):
    # lyapunov, domination and dim on every shipped config, and validate once,
    # with every Python-level call recorded
    argvs = [[command, "--config", str(config), "--deterministic"]
             for config in CONFIGS for command in ("lyapunov", "domination", "dim")]
    argvs.append(["validate", "--config", str(CONFIGS[0]), "--deterministic"])
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    functions = {name: getattr(affinedim, name) for name in affinedim.__all__
                 if inspect.isfunction(getattr(affinedim, name))}
    unreached = {name for name, f in functions.items() if f.__code__ not in called}
    assert sorted(unreached - NOT_RUN_BY_COMMANDS.keys()) == []
    # the list names only functions that no command runs
    assert sorted(NOT_RUN_BY_COMMANDS.keys() - unreached) == []
