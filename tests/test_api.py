"""Export hygiene: every advertised name exists where it is advertised."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ris2x2

INIT = Path(ris2x2.__file__)
MODULES = sorted(
    m.name for m in pkgutil.iter_modules([str(INIT.parent)]) if m.name != "__main__"
)


def test_every_all_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"ris2x2.{name}")
        assert hasattr(module, "__all__"), name
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"ris2x2.{name}.__all__ names missing {missing}"


def test_package_reexports_are_public():
    tree = ast.parse(INIT.read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert {n.module for n in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"ris2x2.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in public]
        assert not stray, f"ris2x2 re-exports {stray} outside ris2x2.{node.module}.__all__"


def test_scipy_is_never_imported(tmp_path):
    # the program runs on numpy alone: loading scipy.special (through
    # array_api_compat, numpy.testing, numpy.f2py and numpy.ma) took about
    # half of every run's start-up, and scipy.integrate or scipy.linalg
    # would add more; nor does a run load numpy's testing, f2py or masked
    # array modules itself (np.unique loads numpy.ma, about 9 ms), nor the
    # executor machinery of concurrent.futures and the logging it brings in
    out = str(tmp_path / "o.csv")
    code = (
        "import sys\n"
        "import ris2x2.cli\n"
        "def check(when):\n"
        "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "    banned = ('numpy.testing', 'numpy.f2py', 'numpy.ma', 'concurrent.futures', 'logging')\n"
        "    loaded += [m for m in banned if m in sys.modules]\n"
        "    assert not loaded, (loaded[:5], when)\n"
        "check('after import')\n"
        f"argv = ['outage', '--trials', '1000', '--snr-db-step', '10', '--out', {out!r}]\n"
        "assert ris2x2.cli.main(argv) == 0\n"
        "check('after outage')\n"
        "assert ris2x2.cli.main(['verify', '--level', 'smoke']) == 0\n"
        "check('after verify')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(INIT.parents[1])] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_names_the_benchmark_tracer_wraps_exist():
    # the benchmark's tracer (perfbench/child.py) wraps module attributes by
    # name with getattr, and reads two TrialStats fields; deleting one of
    # them makes every traced run fail before it starts
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    tree = ast.parse(child.read_text())
    # a name may be a loop variable over a tuple of literals
    loops = {
        node.target.id: [e.value for e in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
    }
    targets = [
        (call.args[0].id, attr)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "patch"
        for attr in (
            [call.args[1].value]
            if isinstance(call.args[1], ast.Constant)
            else loops[call.args[1].id]
        )
    ]
    assert ("analytic", "outage_quadrature") in targets, targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(f"ris2x2.{module}"), attr)
    ]
    assert not missing, f"the benchmark tracer wraps missing names {missing}"
    fields = ris2x2.montecarlo.TrialStats.__dataclass_fields__
    assert {"alt_iterations", "alt_converged"} <= set(fields)
