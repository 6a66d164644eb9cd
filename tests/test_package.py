"""The public surface: each name is declared once, by its defining module."""

import importlib
import inspect

import sepkit

MODULES = ("dualgraph", "errors", "exactfield", "fixtures", "holonomy",
           "intersection", "report", "verdict")


def declaring_modules():
    return [importlib.import_module(f"sepkit.{name}") for name in MODULES]


def test_every_public_name_is_declared_by_exactly_one_module():
    assert len(sepkit.__all__) == len(set(sepkit.__all__))
    owners = {}
    for module in declaring_modules():
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module
    assert set(owners) == set(sepkit.__all__)


def test_package_names_resolve_to_the_declaring_module_objects():
    for module in declaring_modules():
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(sepkit, name) is value, name
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, name


def test_verdict_is_the_function():
    assert inspect.isfunction(sepkit.verdict)
    assert sepkit.verdict is importlib.import_module("sepkit.verdict").verdict


def test_the_side_convention_is_not_public():
    holonomy = importlib.import_module("sepkit.holonomy")
    for name in ("HEAD_SIDE", "TAIL_SIDE"):
        assert name not in sepkit.__all__
        assert not hasattr(sepkit, name)
        assert not hasattr(holonomy, name)


def test_the_second_rule_4_path_is_gone():
    # Rule 4 is decided by the chain alone; its checks re-run through run_check.
    for name in ("gorenstein_reduce", "GorensteinReduction",
                 "GorensteinInconsistent"):
        assert name not in sepkit.__all__
        assert not hasattr(sepkit, name)
