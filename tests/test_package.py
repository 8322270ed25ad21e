"""The package exports exactly its submodules' public names."""

import affinedim
from affinedim import cocycle, dimension, domination, errors, linalg, measure


def test_package_all_is_the_union_of_the_submodules_all():
    modules = (cocycle, dimension, domination, errors, linalg, measure)
    assert len(set(affinedim.__all__)) == len(affinedim.__all__)
    assert set(affinedim.__all__) == {name for m in modules for name in m.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(affinedim, name) is getattr(module, name), name
