"""Package structure: modules share only public names with each other, no
module multiplies by a dense J, channel synthesis has no Python loop, no
module pays for a condition-number SVD or a LAPACK solve, the Cayley step
of synthesis is closed form, the moment integrator's step loop only writes
into preallocated buffers, inputs are validated once, where they enter, and
each threshold, each scalar rule and the residual scale are defined once,
in symcore, and each public name is declared once, in one module's
__all__."""

import ast
import sys
from pathlib import Path

import hamlink
from hamlink import (
    LqssParams,
    check_equivalence,
    demo_problem,
    load_problem,
    load_report,
    save_problem,
    save_report,
    symcore,
    synth,
    synthesize,
    verify,
)

PACKAGE_DIR = Path(hamlink.__file__).resolve().parent


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names a module imports from another hamlink module.

    Dunder names such as __version__ are not private and are allowed.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not (module == "hamlink" or module.startswith("hamlink.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{module}.{name}")
    return found


def test_detector_sees_relative_and_absolute_imports():
    source = (
        "from .files import _dumps, load_problem\n"
        "from hamlink.lqss import _drift\n"
        "from . import __version__\n"
        "from os.path import _private_elsewhere\n"
    )
    assert private_sibling_imports(source) == [".files._dumps", "hamlink.lqss._drift"]


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := private_sibling_imports(path.read_text()))
    }
    assert offenders == {}


def jmat_calls(source: str) -> list[int]:
    """Line numbers of calls to jmat, by bare or attribute name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "jmat"
    ]


def test_detector_sees_jmat_calls():
    source = (
        "from .symcore import jmat\n"
        "j = jmat(2)\n"
        "k = symcore.jmat(n)\n"
        "def jmat(k):\n"
        "    return k\n"
    )
    assert jmat_calls(source) == [2, 3]


def test_no_module_forms_a_dense_j():
    # J acts through its block structure (symcore.j_times, symcore.sharp);
    # jmat is for callers outside the package.
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := jmat_calls(path.read_text()))
    }
    assert offenders == {}


def loop_lines(source: str, function: str) -> list[int]:
    """Line numbers of for statements inside the named top-level function."""
    return [
        node.lineno
        for top in ast.parse(source).body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
        if isinstance(node, (ast.For, ast.AsyncFor))
    ]


def test_detector_sees_for_statements():
    source = (
        "def synthesize(m):\n"
        "    for i in range(m):\n"
        "        pass\n"
        "    def inner():\n"
        "        for j in ():\n"
        "            pass\n"
        "def other():\n"
        "    for k in ():\n"
        "        pass\n"
    )
    assert loop_lines(source, "synthesize") == [2, 5]


def test_channel_synthesis_has_no_python_loop():
    # Channel synthesis works on per-channel vectors and one slot order, so
    # its cost does not grow with a Python loop over channels or slots.
    offenders = {
        name: lines
        for module, name in ((synth, "synthesize"), (symcore, "special_svd"))
        if (lines := loop_lines(Path(module.__file__).read_text(), name))
    }
    assert offenders == {}


def linalg_cond_or_solve(source: str) -> list[str]:
    """numpy.linalg cond and solve uses, as 'name:line': calls through a
    linalg attribute and imports from numpy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("cond", "solve")
            and getattr(node.func.value, "attr", getattr(node.func.value, "id", None)) == "linalg"
        ):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("cond", "solve")]
    return [f"{name}:{line}" for line, name in sorted(found)]


def test_detector_sees_linalg_cond_and_solve():
    source = (
        "import numpy as np\n"
        "c = np.linalg.cond(w)\n"
        "u = numpy.linalg.solve(w, b)\n"
        "from numpy.linalg import solve, inv\n"
        "v = np.linalg.inv(w)\n"
        "s = scipy_like.solve(w, b)\n"
    )
    assert linalg_cond_or_solve(source) == ["cond:2", "solve:3", "solve:4"]


def test_no_module_calls_linalg_cond_or_solve():
    # guarded_solve takes the solution and a 1-norm condition number from
    # one inverse; a 2-norm condition number would cost a full SVD.
    offenders = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := linalg_cond_or_solve(path.read_text()))
    }
    assert offenders == {}


def called_names(source: str, function: str) -> set[str]:
    """Bare and attribute names called inside the named top-level function."""
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for top in ast.parse(source).body
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    }


def test_detector_sees_called_names():
    source = (
        "def synthesize(x):\n"
        "    y = symcore.cayley_sigma_from_x(x)\n"
        "    return guarded_solve(y, x, 'w').T\n"
        "def other(x):\n"
        "    return special_svd(x)\n"
    )
    assert called_names(source, "synthesize") == {"cayley_sigma_from_x", "guarded_solve"}


def test_synthesis_cayley_step_is_closed_form():
    # The loop matrix is block diagonal per channel up to the mixing p, so
    # sigma and the condition number of X + I need no solve.
    called = called_names(Path(synth.__file__).read_text(), "synthesize")
    assert called.isdisjoint({"cayley_sigma_from_x", "guarded_solve"})


def deepest_loop_binops(source: str, function: str) -> list[int]:
    """Line numbers of binary operations (@, +, *, ...) in the bodies of the
    most deeply nested for statements inside the named top-level function."""
    loops = []

    def visit(node, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.AsyncFor)):
                loops.append((depth + 1, child))
                visit(child, depth + 1)
            else:
                visit(child, depth)

    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            visit(top, 0)
    deepest = max((depth for depth, _ in loops), default=0)
    return sorted(
        node.lineno
        for depth, loop in loops
        if depth == deepest
        for statement in loop.body
        for node in ast.walk(statement)
        if isinstance(node, ast.BinOp)
    )


def test_detector_sees_binops_in_the_deepest_loop():
    source = (
        "def simulate_moments(n):\n"
        "    for i in range(n):\n"
        "        x = i * 2\n"
        "    for start in range(n):\n"
        "        for k in range(start + 1):\n"
        "            z[k + 1] = z[k] @ m\n"
        "            v += c\n"
        "            np.add(v, v.T, out=w)\n"
    )
    assert deepest_loop_binops(source, "simulate_moments") == [6, 6]


def test_moment_step_loop_writes_into_preallocated_buffers():
    # Each RK4 step is a fixed number of numpy calls with out= or in-place
    # operands: an expression such as a @ b or p + p.T in the step loop
    # would allocate a temporary on every step.
    source = Path(verify.__file__).read_text()
    assert deepest_loop_binops(source, "simulate_moments") == []


def count_coercions(monkeypatch) -> list[str]:
    """Patch every module binding of as_even_matrix to record the name of
    each array it coerces, and return the list it records into."""
    original = symcore.as_even_matrix
    names = []

    def counting(x, name="matrix"):
        names.append(name)
        return original(x, name)

    bound = [
        module
        for key, module in sorted(sys.modules.items())
        if (key == "hamlink" or key.startswith("hamlink."))
        and getattr(module, "as_even_matrix", None) is original
    ]
    assert symcore in bound
    for module in bound:
        monkeypatch.setattr(module, "as_even_matrix", counting)
    return names


def test_pipeline_validates_only_its_inputs(monkeypatch):
    # On the demo, synthesize checks r_bar_a, r_bar_b and r_ab, special_svd
    # checks its argument, and FeedbackRealization its six matrices: 10; the
    # Cayley step is closed form.  check_equivalence takes x and sigma as
    # the container coerced them, so its structural flags coerce nothing.
    # The stages in between trust what they are given.
    di = demo_problem().interaction
    names = count_coercions(monkeypatch)
    fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
    synth_names, names[:] = list(names), []
    check_equivalence(di, fr)
    assert (len(synth_names), len(names)) == (10, 0), (synth_names, names)


def test_each_entry_point_coerces_each_array_once(monkeypatch, tmp_path):
    # An LqssParams coerces r, c and d, and checks d's symplectic defect on
    # the array it coerced: 3.  load_problem builds two of them and a
    # DirectInteraction, which coerces r_ab: 7.  load_report builds one
    # FeedbackRealization, which coerces its six matrices: 6.
    problem = demo_problem()
    di = problem.interaction
    fr = synthesize(di.sys_a.r, di.sys_b.r, di.r_ab)
    save_problem(problem, tmp_path / "p.json")
    save_report(fr, check_equivalence(di, fr), {}, tmp_path / "r.json")
    names = count_coercions(monkeypatch)
    counts = []
    for build in (
        lambda: LqssParams(n=di.sys_a.n, r=di.sys_a.r, c=di.sys_a.c, d=di.sys_a.d),
        lambda: load_problem(tmp_path / "p.json"),
        lambda: load_report(tmp_path / "r.json"),
    ):
        names[:] = []
        build()
        counts.append(len(names))
    assert counts == [3, 7, 6], names


def threshold_assignments(source: str) -> list[str]:
    """Module-level names ending in _TOL, _CAP or _TINY that the source
    assigns, as 'name:line'."""
    found = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [
            getattr(node, "target", None)
        ]
        for target in targets:
            name = getattr(target, "id", "")
            if name.endswith(("_TOL", "_CAP", "_TINY")):
                found.append(f"{name}:{node.lineno}")
    return found


def inline_scales(source: str) -> list[int]:
    """Line numbers of max(1.0, max_abs(...)) calls outside a function
    named scale."""
    found = []

    def visit(node, inside_scale):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside_scale or child.name == "scale")
                continue
            if (
                not inside_scale
                and isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "max"
                and len(child.args) == 2
                and isinstance(child.args[0], ast.Constant)
                and child.args[0].value == 1
                and isinstance(child.args[1], ast.Call)
                and getattr(
                    child.args[1].func, "id", getattr(child.args[1].func, "attr", None)
                )
                == "max_abs"
            ):
                found.append(child.lineno)
            visit(child, inside_scale)

    visit(ast.parse(source), False)
    return sorted(found)


def test_detector_sees_thresholds_and_inline_scales():
    source = (
        "_SYM_TOL = 1e-12\n"
        "COND_CAP: float = 1e12\n"
        "_PARAM_TINY = 1e-12\n"
        "_MAX_ROWS = 256\n"
        "def f(x):\n"
        "    LOCAL_TOL = 1e-3\n"
        "    return max(1.0, max_abs(x)) + max(1, symcore.max_abs(x))\n"
        "def scale(x):\n"
        "    return max(1.0, max_abs(x))\n"
        "y = max(2.0, max_abs(z))\n"
    )
    assert threshold_assignments(source) == ["_SYM_TOL:1", "COND_CAP:2", "_PARAM_TINY:3"]
    assert inline_scales(source) == [7, 7]


def test_thresholds_are_assigned_only_in_symcore():
    # Every threshold and default lives in symcore's one table.
    offenders = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "symcore.py"
        and (found := threshold_assignments(path.read_text()))
    }
    assert offenders == {}


def math_isfinite_calls(source: str) -> list[int]:
    """Line numbers of calls to math.isfinite, by attribute or by a bare
    name imported from math."""
    tree = ast.parse(source)
    bare = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
        if alias.name == "isfinite"
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "isfinite"
            and getattr(node.func.value, "id", None) == "math"
            or getattr(node.func, "id", None) in bare
        )
    )


def test_detector_sees_math_isfinite_calls():
    source = (
        "import math\n"
        "from math import isfinite as finite\n"
        "ok = math.isfinite(tol) and tol >= 0\n"
        "ok = finite(dt)\n"
        "ok = np.isfinite(a).all()\n"
        "ok = isfinite(x)\n"
    )
    assert math_isfinite_calls(source) == [3, 4]


def test_scalar_rules_live_only_in_symcore():
    # Tolerances, steps, rank_tol and counts are checked by symcore's
    # rules, which the library and the CLI's flag types share.
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "symcore.py" and (lines := math_isfinite_calls(path.read_text()))
    }
    assert offenders == {}


def test_residual_scale_is_written_only_in_symcore_scale():
    # Every scaled residual and scaled threshold goes through symcore.scale.
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := inline_scales(path.read_text()))
    }
    assert offenders == {}


# The modules whose __all__ lists make up the package's public surface.
SURFACE_MODULES = ("errors", "symcore", "lqss", "synth", "verify", "files", "demo")


def test_public_surface_is_the_union_of_module_lists():
    # Each public name is declared once, in one module's __all__; the
    # package re-exports exactly those names, and a later star import
    # does not shadow an earlier one.
    assert len(hamlink.__all__) == len(set(hamlink.__all__))
    owners = {}
    for short in SURFACE_MODULES:
        module = getattr(hamlink, short)
        for name in module.__all__:
            owners.setdefault(name, []).append(short)
            assert getattr(hamlink, name) is getattr(module, name), name
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    assert set(hamlink.__all__) == {"__version__", *owners}


def test_document_helpers_stay_in_files():
    # The CLI's helpers are importable from hamlink.files only.
    for name in ("load_mixing_matrix", "save_trajectory"):
        assert name not in hamlink.__all__
        assert not hasattr(hamlink, name)
        assert callable(getattr(hamlink.files, name))
