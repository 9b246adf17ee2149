"""Every attribute the traced benchmark wraps must exist in the package."""

import importlib
import importlib.util
import os

import pytest

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name, attr", _wrapped(), ids=lambda x: x)
def test_wrapped_name_resolves(module_name, attr):
    module = importlib.import_module(f"pairspec.{module_name}")
    assert callable(getattr(module, attr))
