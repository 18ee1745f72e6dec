"""The package metadata and import graph: every console script names a
callable, and modules import only what they use, at module level."""

import ast
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


def printed_by(code: str):
    """The value that ``code``, run in a fresh interpreter, prints last."""
    import gazecast

    src = str(Path(gazecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def loaded_after(code: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    return printed_by(code + f"\nimport sys\nprint(sorted(m for m in {tuple(modules)!r} if m in sys.modules))\n")


def test_package_imports_no_scipy_signal_or_stats():
    # both take most of a second to import, and no gazecast module needs them
    code = (
        "import importlib, pkgutil, gazecast\n"
        "for m in pkgutil.iter_modules(gazecast.__path__):\n"
        "    importlib.import_module('gazecast.' + m.name)\n"
    )
    assert loaded_after(code, ("scipy.signal", "scipy.stats")) == []


def test_learned_needs_no_kalman_filter():
    # the LSTM and the baselines return the run type scoring defines
    assert loaded_after("import gazecast.learned", ("gazecast.opkf", "scipy.linalg")) == []


def test_no_thread_starts_where_none_is_needed():
    # the LSTM's column-block pool starts with the first pass wide enough
    # to split; importing, the baselines and a narrow pass start no thread
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from gazecast import learned, signal\n"
        "counts = [threading.active_count()]\n"
        "rec = signal.recording_from_arrays('S', np.arange(300) / 100.0, np.zeros(300))\n"
        "vel = signal.compute_velocity(rec, signal.DiffConfig(mode='causal'))\n"
        "learned.baseline_predict('constant-velocity', rec, vel, 40)\n"
        "learned.baseline_predict('constant-position', rec, None, 40)\n"
        "counts.append(threading.active_count())\n"
        "model = learned.LstmModel.init_seeded(0)\n"
        "learned.lstm_forward(model, np.zeros((learned.BLOCK_MIN, 10, 2)))\n"
        "counts.append(threading.active_count())\n"
        "learned._n_blocks = lambda b: 2\n"
        "learned.lstm_forward(model, np.zeros((learned.BLOCK_MIN, 10, 2)))\n"
        "counts.append(threading.active_count())\n"
        "print(counts)\n"
    )
    assert printed_by(code) == [1, 1, 1, 2]


def test_no_unused_import():
    # a deletion can leave an import behind that nothing references
    import gazecast

    tests = Path(__file__).parent
    for path in sorted([*Path(gazecast.__file__).parent.glob("*.py"), *tests.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, f"{path.name}:{node.lineno} imports {name} and never uses it"


def test_no_import_inside_a_function():
    # a deferred import hides a cycle in the module graph
    import gazecast

    for path in sorted(Path(gazecast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}:{inner[0]} imports inside {fn.name}()"
