"""The package metadata and import cost: every console script names a callable."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"


def test_package_imports_no_scipy_signal_or_stats():
    # both take most of a second to import, and no gazecast module needs them
    import gazecast

    code = (
        "import importlib, pkgutil, sys, gazecast\n"
        "for m in pkgutil.iter_modules(gazecast.__path__):\n"
        "    importlib.import_module('gazecast.' + m.name)\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n"
    )
    src = str(Path(gazecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
