"""The package's public names: each module's ``__all__`` names only what
the module defines or imports."""

import importlib
import pkgutil

import pytest

import ddsmetrics

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(ddsmetrics.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"ddsmetrics.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
