import importlib
import inspect

import pytest

import htt

# Modules whose __all__ the package re-exports, and those that keep their
# own namespace (runners, file formats and plots)
REEXPORTED = ("sampler", "matrices", "limit_operator", "spectra", "metrics")
OWN_NAMESPACE = ("serialize", "experiments", "plots")


@pytest.mark.parametrize("name", REEXPORTED + OWN_NAMESPACE)
def test_all_names_resolve(name):
    module = importlib.import_module(f"htt.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_reexports_all(name):
    module = importlib.import_module(f"htt.{name}")
    for n in module.__all__:
        assert getattr(htt, n, None) is getattr(module, n), n


@pytest.mark.parametrize("name", REEXPORTED + OWN_NAMESPACE)
def test_all_lists_every_public_definition(name):
    # the public functions and classes a module defines are exactly the
    # functions and classes of its __all__
    module = importlib.import_module(f"htt.{name}")
    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    listed = {
        n
        for n in module.__all__
        if inspect.isfunction(getattr(module, n, None))
        or inspect.isclass(getattr(module, n, None))
    }
    assert defined == listed
