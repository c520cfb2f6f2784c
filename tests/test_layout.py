"""Package layout rules: no module reaches into another's private names,
the numeric modules load without the symbolic algebra stack, the Eulerian
solver loads without scipy.special and the command line without
scipy.optimize."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spinkin

PACKAGE = Path(spinkin.__file__).parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(
                            f"{path.name}: from {'.' * node.level}"
                            f"{node.module or ''} import {alias.name}")
    assert not offenders, offenders


def test_numeric_modules_do_not_load_sympy():
    code = ("import sys\n"
            "import spinkin.eulerian, spinkin.sphere\n"
            "assert 'scipy.special' not in sys.modules, "
            "'scipy.special was imported'\n"
            "import spinkin.cli\n"
            "assert 'scipy.optimize' not in sys.modules, "
            "'scipy.optimize was imported'\n"
            # `spinkin transform` imports gauge on every call, so the
            # symbolic residuals must stay off the transform path
            "import spinkin.gauge, spinkin.transforms, spinkin.scenarios\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(PACKAGE.parent)]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
