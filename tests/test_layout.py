"""Package layout rules: no module reaches into another's private names,
every defaulted parameter (dataclass fields included) is passed by some
call, scipy is imported only inside SphereQuadrature.harmonic_matrix, the
numeric modules load without the symbolic algebra stack, the Eulerian
solver loads without scipy.special, and the command line, a run and its
frequency fit load neither scipy.optimize nor scipy.special."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spinkin

PACKAGE = Path(spinkin.__file__).parent
REPO = Path(__file__).resolve().parent.parent


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


def _scipy_imports(node, scope=()):
    """(scope, module) for every import of scipy under node; scope is the
    chain of enclosing class and function names."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [a.name for a in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        out += [(scope, n) for n in names if n.split(".")[0] == "scipy"]
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        out += _scipy_imports(child, inner)
    return out


def test_scipy_imported_only_by_harmonic_matrix():
    allowed = ("sphere.py", ("SphereQuadrature", "harmonic_matrix"))
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}: {'.'.join(scope) or '<module>'} imports {mod}"
                      for scope, mod in _scipy_imports(tree)
                      if (path.name, scope) != allowed]
    assert not offenders, offenders


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in (getattr(d, "func", d) for d in node.decorator_list))


def _dataclass_fields(node):
    """(class, field, positional index) for every constructor parameter of
    a dataclass that has a default; `field(init=False)` is not one."""
    out, index = [], 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value, has_default = stmt.value, stmt.value is not None
        if (isinstance(value, ast.Call)
                and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"):
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            has_default = "default" in kw or "default_factory" in kw
        if has_default:
            out.append((node.name, stmt.target.id, index))
        index += 1
    return out


def _defaulted_parameters(body, in_class=False):
    """(function, parameter, positional index or None) for every parameter
    with a default, `self`/`cls` not counted for methods, and for every
    dataclass field that is a constructor parameter with a default."""
    out = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                out += _dataclass_fields(node)
            out += _defaulted_parameters(node.body, in_class=True)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            if in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in node.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            out += [(node.name, a.arg, i)
                    for i, a in enumerate(positional[first:], start=first)]
            out += [(node.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
            out += _defaulted_parameters(node.body)
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    # calls are matched by the called name alone; a *args call counts for
    # every position and a **kwargs call for every keyword
    keywords, positions = {}, {}
    callers = [p for top in ("src", "tests", "demos", "bench")
               for p in sorted((REPO / top).rglob("*.py"))]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positions[name] = max(positions.get(name, 0), n_pos)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, param, index in _defaulted_parameters(tree.body):
            passed = keywords.get(fn, set())
            if not (param in passed or None in passed
                    or index is not None and positions.get(fn, 0) > index):
                unset.append(f"{path.name}: {fn}.{param}")
    assert not unset, f"defaulted parameters no call passes: {unset}"


def test_numeric_modules_do_not_load_sympy(tmp_path):
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
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
            # a run and its frequency fit, as in `spinkin check`, load no
            # scipy submodule
            "import os\n"
            "from spinkin.config import config_from_dict\n"
            "from spinkin.diagnostics import DiagnosticsSeries, fit_frequency\n"
            "for cfg, column in (\n"
            "        (dict(scenario='precession', B0=1.0, n_particles=16,\n"
            "              n_x=16, dt=0.2, t_end=60.0), 'sigma_x'),\n"
            "        (dict(scenario='plasma_osc', n_x=32, n_particles=2000,\n"
            "              length=10.0, dt=0.1, t_end=56.0,\n"
            "              perturbation=1e-3), 'E_mode')):\n"
            "    run_dir, status = spinkin.scenarios.run_case(\n"
            f"        config_from_dict(cfg), out_dir={str(tmp_path)!r})\n"
            "    series = DiagnosticsSeries.read_csv(\n"
            "        os.path.join(run_dir, 'diagnostics.csv'))\n"
            "    assert fit_frequency(series, column).conclusive\n"
            "loaded = {'scipy.optimize', 'scipy.special'} & set(sys.modules)\n"
            "assert not loaded, f'{sorted(loaded)} imported by a run'\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(PACKAGE.parent)]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
