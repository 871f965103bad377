"""Every function, method and class of the package has a caller in it, or a reason.

The test collects what ``src/cglburgers`` defines (not ``__init__.py``, not
dunders) and the names its code uses: the NAME tokens of every module but
``__init__.py``, so a comment or a docstring that mentions a name does not
count as a caller, and neither does a re-export.  A definition whose name
occurs nowhere else is reached only from outside the package.  Such a name
must be on ``ALLOWED`` with the check that needs it; anything else that
only its own tests call is deleted, or its reference moves to
``tests/helpers.py``.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cglburgers"

ALLOWED = {
    "lp_norm": "criterion 8 sums the L^2 norms of the dyadic blocks against lp_norm(f)",
    "heat_solution_series": "the propagator and forced-series tests of tests/test_solver.py, "
    "tests/test_littlewood_paley.py and tests/test_besov_blocks.py check it against exact "
    "solutions",
    "dyadic_block": "criterion 8 takes the homogeneous blocks one by one",
    "homogeneous_range": "criterion 8 ranges over the homogeneous blocks",
    "nonhomogeneous_range": "the per-block references of tests/test_besov_blocks.py",
    "stability_conditions": "criterion 4 checks the conditions against the closed-form real parts",
    "closed_form_real_parts": "criterion 4 compares them with the stability conditions",
    "compare_closed_form": "criterion 3 compares the closed forms with the eigenvalue oracle",
    "rhs_nonlinear": "the RHS seam: tests/test_rhs.py and tests/test_solver.py compare it "
    "with independent right-hand sides",
    "remainder": "the remainder seam: tests/test_polar_rhs.py and tests/test_perturbation.py "
    "compare it with the reference remainders",
    "constants": "bench/workloads.py and the tests build constant-coefficient parameters with it",
    "coordinates": "tests/test_manufactured.py evaluates the exact solutions on the grid",
    "is_real_valued": "tests/test_spectral.py and tests/test_solver.py check that fields are real",
    "drift_residual": "tests/test_model.py checks the drift compatibility of plane waves",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _definitions() -> Counter:
    defined = Counter()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    return defined


def _name_tokens() -> Counter:
    used = Counter()
    for path in _modules():
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        used.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
    return used


def test_every_name_without_a_caller_in_the_package_is_argued_for():
    defined, used = _definitions(), _name_tokens()
    uncalled = {name for name, count in defined.items() if used[name] <= count}
    unargued = sorted(uncalled - ALLOWED.keys())
    assert not unargued, f"no caller in src/ and not on ALLOWED: {unargued}"
    called = sorted(ALLOWED.keys() - uncalled)
    assert not called, f"on ALLOWED but called in src/: {called}"


def test_the_package_root_loads_no_module():
    # The root used to re-export 43 names, so importing one module loaded all seven.
    probe = (
        "import sys, cglburgers.solver\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cglburgers'))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert ast.literal_eval(out) == [
        "cglburgers", "cglburgers.model", "cglburgers.solver", "cglburgers.spectral"
    ]
