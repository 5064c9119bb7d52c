"""The package imports numpy and the standard library only; scipy is
loaded on first use of complex alpha in gamma_p_ln."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import importlib, pkgutil, sys
import mvda, mvda.cli
for module in pkgutil.iter_modules(mvda.__path__):
    importlib.import_module("mvda." + module.name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
value = mvda.gamma_p_ln(2, 3 + 1j)
print(isinstance(value, complex), "scipy.special" in sys.modules)
"""


def test_package_imports_no_scipy_until_complex_alpha():
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out == ["[]", "True True"]
