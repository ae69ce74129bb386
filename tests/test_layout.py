"""Module layout: private helpers, set-bit loops and byte selectors live in
the _bits module, each of its kernels and each module export has a caller
or is a declared entry point, the package exports exactly its public
modules' __all__, random picks are drawn by one helper of group, and only
the reference layers build the dense Jordan-Wigner matrix."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pclifford

SRC = Path(__file__).resolve().parent.parent / "src" / "pclifford"
SHARED = "_bits"


def private_imports(path):
    """(line, text) of each import of a private name from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif (node.module or "").startswith("pclifford."):
            module = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            if not alias.name.startswith("_"):
                continue
            # `from . import _bits` names the module itself
            source = module if module is not None else alias.name
            if source.split(".")[0] != SHARED:
                found.append((node.lineno, f"from {module or '.'} import {alias.name}"))
    return found


def test_sources_found():
    assert (SRC / f"{SHARED}.py").is_file()
    assert len(list(SRC.glob("*.py"))) > 1


def test_no_private_imports_across_modules():
    offenders = {
        path.name: private_imports(path)
        for path in sorted(SRC.glob("*.py"))
        if private_imports(path)
    }
    assert offenders == {}


def test_guard_detects_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .group import _reflect\n"
        "from pclifford.design import _potential\n"
        "from ._bits import eta_swap\n"
        "from . import _bits\n"
        "from .f2core import BitMatrix\n"
    )
    assert [line for line, _ in private_imports(probe)] == [1, 2]


def call_sites(path, name):
    """Line numbers of the calls to a bare name in a module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def test_design_builds_group_elements_at_one_site():
    """Monte Carlo past 64 labels builds each element by one group_rows
    call; below, batch builds them, and exact mode builds none."""
    assert len(call_sites(SRC / "design.py", "group_rows")) == 1


def test_call_site_guard_counts_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .group import group_rows\n"
        "a = group_rows('orthogonal', 2, [0])\n"
        "b = [group_rows(k, 2, p) for k, p in []]\n"
        "c = group_rows\n"
    )
    assert call_sites(probe, "group_rows") == [2, 3]


def set_bit_loops(path):
    """Line numbers of each `x &= x - 1`, the step of a set-bit loop."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.target, ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Sub)
        and isinstance(node.value.left, ast.Name)
        and node.value.left.id == node.target.id
        and isinstance(node.value.right, ast.Constant)
        and node.value.right.value == 1
    )


def binary_rendering(node):
    """Whether node is bin(x) or format(x, spec) with a binary spec such
    as "b" or f"0{m}b"."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "bin":
        return True
    if node.func.id != "format" or len(node.args) != 2:
        return False
    spec = node.args[1]
    if isinstance(spec, ast.JoinedStr) and spec.values:
        spec = spec.values[-1]
    return isinstance(spec, ast.Constant) and str(spec.value).endswith("b")


def chain_base(node):
    """The start of a chain of method calls and subscripts, such as the
    bin(x) of bin(x)[2:].encode()."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return node


def byte_selectors(path):
    """Line numbers of each binary rendering of an int that is encoded or
    translated straight into bytes: the selector compress reads one row
    per bit from."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("encode", "translate")
            and binary_rendering(chain_base(node.func.value))
        }
    )


def test_set_bit_loops_only_in_bits():
    """The set-bit loop and the byte selector, the two ways of picking
    rows by the bits of a packed int, live in _bits."""
    for idiom in (set_bit_loops, byte_selectors):
        offenders = {
            path.name: idiom(path)
            for path in sorted(SRC.glob("*.py"))
            if path.stem != SHARED and idiom(path)
        }
        assert offenders == {}
        assert idiom(SRC / f"{SHARED}.py")


def test_set_bit_loop_guard_finds_the_step(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(x, y):\n"
        "    while x:\n"
        "        x &= x - 1\n"
        "    y &= x - 1\n"
        "    x &= x - 2\n"
        "    x ^= x - 1\n"
        "    x &= x - 1\n"
    )
    assert set_bit_loops(probe) == [3, 7]


def test_byte_selector_guard_finds_the_rendering(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from itertools import compress\n"
        "T = bytes.maketrans(b'01', b'\\0\\1')\n"
        "a = compress(rows, format(x, 'b').encode().translate(T))\n"
        "sel = format(x, f'0{m}b').encode()\n"
        "b = list(compress(rows, sel.translate(T)))\n"
        "c = bin(x)[2:].encode().translate(T)\n"
        "d = format(x, 'd').translate({48: 32})\n"
        "e = int(format(x, f'0{k}b')[::-1], 2)\n"
        "f = compress(rows, [1, 0, 1])\n"
        "g = '\\n'.join(format(r, 'b') for r in rows).encode()\n"
    )
    assert byte_selectors(probe) == [3, 4, 6]


# every random pick is drawn in one place, where randrange's loop runs inline
DRAW_NAMES = {"randrange", "getrandbits"}
DRAW_HELPER = "random_draws"
DRAW_MODULES = ("group", "design", "batch")


def rng_draws(path):
    """Line numbers naming randrange or getrandbits, as an attribute, a
    bare name or an import, outside the body of the draw helper."""
    tree = ast.parse(path.read_text(), filename=str(path))
    helpers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == DRAW_HELPER
    ]
    inside = {id(sub) for helper in helpers for sub in ast.walk(helper)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, ast.Attribute) and node.attr in DRAW_NAMES)
            or (isinstance(node, ast.Name) and node.id in DRAW_NAMES)
            or (isinstance(node, ast.ImportFrom) and any(a.name in DRAW_NAMES for a in node.names))
        )
    )


def test_rng_draws_only_in_the_draw_helper():
    """group.random_draws is the one place that draws a pick, so the
    sampler, Monte Carlo and batch streams cannot drift apart."""
    offenders = {
        name: rng_draws(SRC / f"{name}.py")
        for name in DRAW_MODULES
        if rng_draws(SRC / f"{name}.py")
    }
    assert offenders == {}
    tree = ast.parse((SRC / "group.py").read_text())
    helper = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == DRAW_HELPER
    )
    named = {n.attr for n in ast.walk(helper) if isinstance(n, ast.Attribute)}
    assert DRAW_NAMES <= named


def test_rng_draw_guard_finds_the_draws(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import random\n"
        "def random_draws(rng, sizes):\n"
        "    bits = rng.getrandbits\n"
        "    return [rng.randrange(s) for s in sizes]\n"
        "def picks(rng, sizes):\n"
        "    return [rng.randrange(s) for s in sizes]\n"
        "seed = random.SystemRandom().getrandbits(53)\n"
        "from random import randrange\n"
        "draw = randrange\n"
        "x = random_draws(random.Random(1), [3])\n"
        "y = 'randrange'\n"
    )
    assert rng_draws(probe) == [6, 7, 8, 9]


def unused_functions(shared, paths):
    """Module-level functions of shared that no module of paths names
    outside an import: a kernel kept only by an import is dead too."""
    defined = [
        node.name
        for node in ast.parse(shared.read_text(), filename=str(shared)).body
        if isinstance(node, ast.FunctionDef)
    ]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in defined if name not in used]


def test_every_bits_kernel_has_a_caller():
    assert unused_functions(SRC / f"{SHARED}.py", sorted(SRC.glob("*.py"))) == []


def test_unused_function_guard_finds_dead_kernels(tmp_path):
    shared = tmp_path / "_bits.py"
    shared.write_text(
        "def gather(rows, x, n):\n"
        "    return top_bit(x)\n"
        "def top_bit(x):\n"
        "    return x\n"
        "def row_parities(rows, x):\n"
        "    return x\n"
        "def scatter(rows, x, n, value):\n"
        "    pass\n"
    )
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from ._bits import gather, row_parities, scatter\n"
        "from . import _bits\n"
        "a = gather([], 0, 1)\n"
        "f = _bits.row_parities\n"
    )
    assert unused_functions(shared, [shared]) == ["gather", "row_parities", "scatter"]
    assert unused_functions(shared, [shared, probe]) == ["scatter"]


# handlers and verify suites are called through a fixed signature, so a
# parameter they do not read is still part of their contract
FIXED_SIGNATURES = {("_cmd_", "ns"), ("_suite_", "rng")}


def unread_parameters(path):
    """(line, function, parameter) for each parameter that the body of its
    function never names, fixed signatures aside."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        for a in params:
            fixed = any(
                name.startswith(prefix) and a.arg == arg for prefix, arg in FIXED_SIGNATURES
            )
            if a.arg not in named and not fixed:
                found.append((node.lineno, name, a.arg))
    return sorted(found)


def test_every_parameter_is_read():
    offenders = {
        path.name: unread_parameters(path)
        for path in sorted(SRC.glob("*.py"))
        if unread_parameters(path)
    }
    assert offenders == {}


def test_unread_parameter_guard_finds_dead_parameters(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(k, idx):\n"
        "    return idx << 1\n"
        "def g(x, *args, flag=False, **kw):\n"
        "    def inner(y):\n"
        "        return x\n"
        "    return inner, args\n"
        "h = lambda a, b: a\n"
        "def _cmd_x(ns):\n"
        "    return 0\n"
        "def _suite_y(rng):\n"
        "    return True, ''\n"
        "def _suite_z(ns, seed):\n"
        "    return seed\n"
    )
    assert unread_parameters(probe) == [
        (1, "f", "k"),
        (3, "g", "flag"),
        (3, "g", "kw"),
        (4, "inner", "y"),
        (7, "<lambda>", "b"),
        (12, "_suite_z", "ns"),
    ]


# the dense W stays the independent reference of the packed relabeling
JW_REFERENCE_MODULES = {"f2core", "cli", "dense"}


def jw_matrix_builds(path):
    """Line numbers of each make_form("jw", ...) call, bare or attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "make_form")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "make_form")
        )
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "jw"
    )


def test_only_reference_modules_build_the_jw_matrix():
    offenders = {
        path.name: jw_matrix_builds(path)
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in JW_REFERENCE_MODULES and jw_matrix_builds(path)
    }
    assert offenders == {}
    assert jw_matrix_builds(SRC / "dense.py")


def test_jw_matrix_guard_finds_the_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import f2core\n"
        "W = make_form('jw', 4)\n"
        "E = make_form('eta', 4)\n"
        "V = f2core.make_form(\n"
        "    'jw', n)\n"
        "kind = 'jw'\n"
        "U = make_form(kind, 4)\n"
    )
    assert jw_matrix_builds(probe) == [2, 4]


# group elements are built, checked and peeled through their own forms, and
# the transvection middles come in closed form, not from an echelon solve
GENERIC_ALGEBRA = {"solve_affine", "make_form", "rref_ints"}


def names_used(path):
    """Every bare name, attribute and imported name a module mentions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_group_names_no_generic_algebra():
    assert names_used(SRC / "group.py") & GENERIC_ALGEBRA == set()


def test_name_guard_sees_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .f2core import solve_affine as solve\n"
        "from . import f2core\n"
        "f = f2core.make_form\n"
        "red, pivots = f2core.rref_ints(rows)\n"
    )
    assert names_used(probe) & GENERIC_ALGEBRA == GENERIC_ALGEBRA


def parity_names(test):
    """{x, y} when test is the parity (x & y).bit_count() & 1 of two names."""
    if not (
        isinstance(test, ast.BinOp)
        and isinstance(test.op, ast.BitAnd)
        and isinstance(test.right, ast.Constant)
        and test.right.value == 1
        and isinstance(test.left, ast.Call)
        and isinstance(test.left.func, ast.Attribute)
        and test.left.func.attr == "bit_count"
        and isinstance(test.left.func.value, ast.BinOp)
        and isinstance(test.left.func.value.op, ast.BitAnd)
    ):
        return None
    inner = test.left.func.value
    if isinstance(inner.left, ast.Name) and isinstance(inner.right, ast.Name):
        return {inner.left.id, inner.right.id}
    return None


def xor_names(node):
    """{x, y} for x ^ y or x ^= y on two names."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
        left, right = node.left, node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor):
        left, right = node.target, node.value
    else:
        return None
    if isinstance(left, ast.Name) and isinstance(right, ast.Name):
        return {left.id, right.id}
    return None


def right_reflections(path):
    """Line numbers of each right-reflection row update: r gains a, as
    r ^ a or r ^= a, under the condition that r^T a = 1."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        pair = parity_names(node.test)
        body = node.body if isinstance(node.body, list) else [node.body]
        if pair and any(
            xor_names(sub) == pair for stmt in body for sub in ast.walk(stmt)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_right_reflection_update_only_in_bits():
    offenders = {
        path.name: right_reflections(path)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != SHARED and right_reflections(path)
    }
    assert offenders == {}
    assert right_reflections(SRC / f"{SHARED}.py")


def test_right_reflection_guard_finds_the_update(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(rows, a, b, pv):\n"
        "    for i, r in enumerate(rows):\n"
        "        if (r & a).bit_count() & 1:\n"
        "            rows[i] = r ^ a\n"
        "        if (a & r).bit_count() & 1:\n"
        "            r ^= a\n"
        "    out = [r ^ a if (r & a).bit_count() & 1 else r for r in rows]\n"
        "    if (r & a).bit_count() & 1:\n"
        "        rows[0] = r ^ b\n"
        "    if ((r & a).bit_count() & 1) ^ pv == 1:\n"
        "        return r ^ a\n"
    )
    assert right_reflections(probe) == [3, 5, 7]


# numpy stays with the dense oracle, the CLI that drives it, and the batch
# kernels of the exponent stream
NUMPY_MODULES = {"dense", "cli", "batch"}


def numpy_imports(path):
    """Line numbers of each import of numpy, at any depth of the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_only_the_batch_and_oracle_modules_import_numpy():
    offenders = {
        path.name: numpy_imports(path)
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in NUMPY_MODULES and numpy_imports(path)
    }
    assert offenders == {}
    assert all(numpy_imports(SRC / f"{name}.py") for name in NUMPY_MODULES)


def test_numpy_guard_finds_the_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def f():\n"
        "    import numpy.linalg\n"
        "from numpy import zeros\n"
        "from .numpy import x\n"
        "import numpyish\n"
        "import os, numpy\n"
    )
    assert numpy_imports(probe) == [1, 3, 4, 7]


def test_importing_the_library_loads_no_batch_kernels():
    """design loads the batch module with its first Monte Carlo potential:
    an import compiles none of it and loads no numpy."""
    code = (
        "import sys\n"
        "import pclifford.design, pclifford.group, pclifford.stabilizer\n"
        "assert 'pclifford.batch' not in sys.modules and 'numpy' not in sys.modules\n"
        "pclifford.design.frame_potential('symplectic', 2, 2, mode='monte_carlo', seed=1, samples=2)\n"
        "assert 'pclifford.batch' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_monte_carlo_past_64_labels_loads_no_numpy():
    """Past 64 labels each sample is the scalar group_rows and _exponent,
    so the batch module and numpy stay unloaded."""
    code = (
        "import sys\n"
        "from pclifford import design\n"
        "rep = design.frame_potential('orthogonal', 66, 2, mode='monte_carlo', seed=1, samples=2)\n"
        "assert rep.samples == 2\n"
        "assert 'numpy' not in sys.modules and 'pclifford.batch' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_importing_the_cli_loads_no_numpy():
    """Only the verify suites that compare with the dense oracle load it."""
    code = "import sys, pclifford.cli\nassert 'numpy' not in sys.modules\n"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_exact_mode_loads_no_numpy():
    """Exact potentials and orbit lists are Witt counts in pure Python."""
    code = (
        "import sys\n"
        "from pclifford import design\n"
        "assert design.frame_potential('symplectic', 6, 4).value == 30\n"
        "assert design.parity_frame_potential(8, 4).value == 30\n"
        "assert len(design.orbit_decomposition(8, 2, 'orthogonal')) == 24\n"
        "assert 'numpy' not in sys.modules and 'pclifford.batch' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_orbit_lists_load_no_numpy():
    """The orbits command lists Witt counts in pure Python."""
    code = (
        "import sys\n"
        "from pclifford import cli\n"
        "assert cli.main(['orbits', '--group', 'sp', '--dim', '8']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


# every pick list is enumerated in one order, by one helper of batch
ENUMERATION_MODULE, ENUMERATION_HELPER = "batch", "_every_pick"


def numpy_indices(path):
    """Line numbers naming numpy's indices, as np.indices, numpy.indices
    or an import from numpy, outside the enumeration helper of batch."""
    tree = ast.parse(path.read_text(), filename=str(path))
    helpers = [
        node for node in ast.walk(tree)
        if path.stem == ENUMERATION_MODULE
        and isinstance(node, ast.FunctionDef)
        and node.name == ENUMERATION_HELPER
    ]
    inside = {id(sub) for helper in helpers for sub in ast.walk(helper)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (
                isinstance(node, ast.Attribute)
                and node.attr == "indices"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
            or (
                isinstance(node, ast.ImportFrom)
                and node.module == "numpy"
                and any(alias.name == "indices" for alias in node.names)
            )
        )
    )


def test_pick_lists_are_enumerated_only_by_every_pick():
    """batch._every_pick lays every table out in the samplers' index
    order; a second np.indices would bring a second order back."""
    offenders = {
        path.name: numpy_indices(path)
        for path in sorted(SRC.glob("*.py"))
        if numpy_indices(path)
    }
    assert offenders == {}
    tree = ast.parse((SRC / f"{ENUMERATION_MODULE}.py").read_text())
    helper = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == ENUMERATION_HELPER
    )
    assert [n.attr for n in ast.walk(helper) if isinstance(n, ast.Attribute)].count("indices") == 1


def test_indices_guard_finds_the_names(tmp_path):
    text = (
        "import numpy as np\n"
        "from numpy import indices, zeros\n"
        "def _every_pick(radices):\n"
        "    return np.indices(radices[::-1])\n"
        "def table(radices):\n"
        "    return numpy.indices(radices)\n"
        "grid = np.indices\n"
        "other = picks.indices\n"
    )
    for name, want in (("batch", [2, 6, 7]), ("design", [2, 4, 6, 7])):
        probe = tmp_path / f"{name}.py"
        probe.write_text(text)
        assert numpy_indices(probe) == want


def itertools_products(path):
    """Line numbers naming itertools.product, as an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "product"
            and isinstance(node.value, ast.Name)
            and node.value.id == "itertools"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and any(alias.name == "product" for alias in node.names)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_design_enumerates_without_itertools_product():
    """Exact mode counts orbits in closed form and Monte Carlo draws pick
    lists: neither walks a product."""
    assert itertools_products(SRC / "design.py") == []


def test_product_guard_finds_the_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import itertools\n"
        "picks = itertools.product(range(2), range(3))\n"
        "from itertools import chain, product\n"
        "import math\n"
        "n = math.prod([2, 3])\n"
    )
    assert itertools_products(probe) == [2, 3]


def exported_names(path):
    """The strings of a module's __all__."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def unreferenced_exports(module, paths):
    """Names of module's __all__ that no other module of paths mentions."""
    used = set().union(*(names_used(path) for path in paths if path != module))
    return [name for name in exported_names(module) if name not in used]


SCRIPTS = SRC.parent.parent / "scripts"

# exports that no other module of src/ and no script calls: the library's
# API, and the dense oracle that the tests check it against
ENTRY_POINTS = (
    # f2core
    "AffineSolution", "complement", "parse_matrix",
    # strings
    "commutes", "jordan_wigner_map", "parity_operator",
    # dense
    "DIM_CAP", "dense_word", "stabilizer_projector_dense", "parity_restricted_trace_sq",
    # group
    "decompose_orthogonal", "reflection_product", "parse_braid_word",
    # stabilizer
    "IsotropicSubspace", "Stabilizer", "validate_isotropic", "stabilizer_element",
    "logical_generators", "state_parity", "format_stabilizer",
    # design
    "FixedPointProfile", "FramePotentialReport", "fixed_point_profile", "quotient_action",
)


def uncalled_exports(src, scripts):
    """{module: its exports that no other module of src and no script
    names}; the package __init__ only re-exports, so it calls none."""
    callers = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted(scripts.glob("*.py"))
    found = {path.stem: unreferenced_exports(path, callers) for path in sorted(src.glob("*.py"))}
    return {module: names for module, names in found.items() if names}


def test_every_export_has_a_caller():
    """An export that a change of path leaves behind fails here, unless it
    is a declared entry point."""
    stray = [
        f"{module}.{name}"
        for module, names in uncalled_exports(SRC, SCRIPTS).items()
        for name in names
        if name not in ENTRY_POINTS
    ]
    assert stray == []
    exported = {name for path in SRC.glob("*.py") for name in exported_names(path)}
    assert set(ENTRY_POINTS) <= exported
    assert list(SCRIPTS.glob("*.py"))


def test_export_guard_counts_no_package_import_as_a_caller(tmp_path):
    src, scripts = tmp_path / "src", tmp_path / "scripts"
    src.mkdir()
    scripts.mkdir()
    (src / "group.py").write_text(
        '__all__ = ["braid_action", "sample", "word"]\n'
        "def braid_action(a, s):\n"
        "    return word(a)\n"
    )
    (src / "__init__.py").write_text("from .group import braid_action, sample, word\n")
    (src / "stabilizer.py").write_text("from .group import braid_action\n")
    (scripts / "demo.py").write_text("from pclifford import group\nw = group.word\n")
    assert uncalled_exports(src, scripts) == {"group": ["sample"]}
    (scripts / "demo.py").unlink()
    assert uncalled_exports(src, scripts) == {"group": ["sample", "word"]}


def test_export_guard_finds_unreferenced_names(tmp_path):
    module = tmp_path / "batch.py"
    module.write_text(
        '__all__ = ["exponents", "index_picks", "rank_batch"]\n'
        "def index_picks(sizes):\n"
        "    return rank_batch(sizes)\n"
    )
    probe = tmp_path / "design.py"
    probe.write_text("from . import batch\nx = batch.exponents\n")
    assert exported_names(module) == ["exponents", "index_picks", "rank_batch"]
    assert unreferenced_exports(module, [module, probe]) == ["index_picks", "rank_batch"]


# the modules whose __all__ the package re-exports, and nothing else
PUBLIC_MODULES = ("f2core", "strings", "group", "stabilizer", "design")


def init_extras(path):
    """(line, source) of each statement of a package __init__ other than
    its docstring, a star import of a public module and __version__."""
    text = path.read_text()
    found = []
    for i, node in enumerate(ast.parse(text, filename=str(path)).body):
        docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        star = (
            isinstance(node, ast.ImportFrom)
            and node.level == 1
            and node.module in PUBLIC_MODULES
            and [alias.name for alias in node.names] == ["*"]
        )
        version = isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["__version__"]
        if not (docstring or star or version):
            found.append((node.lineno, ast.get_source_segment(text, node)))
    return found


def test_the_package_exports_each_module_all_and_nothing_else():
    """One list of public names per module: __init__ holds no list of its
    own, so the two cannot drift apart, and a missing star import drops
    that module's names."""
    assert init_extras(SRC / "__init__.py") == []
    modules = [importlib.import_module(f"pclifford.{name}") for name in PUBLIC_MODULES]
    public = {
        name
        for name, value in vars(pclifford).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(module.__all__ for module in modules))


def test_init_guard_finds_an_explicit_import(tmp_path):
    probe = tmp_path / "__init__.py"
    probe.write_text(
        '"""The package."""\n'
        "from .f2core import *\n"
        "from .group import braid_action\n"
        "from .dense import *\n"
        "__all__ = ['braid_action']\n"
        '__version__ = "0.1.0"\n'
    )
    assert init_extras(probe) == [
        (3, "from .group import braid_action"),
        (4, "from .dense import *"),
        (5, "__all__ = ['braid_action']"),
    ]


def kind_comparisons(path):
    """Line numbers of each comparison with the name `kind` as an operand."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Name) and operand.id == "kind"
            for operand in [node.left, *node.comparators]
        )
    )


def test_batch_makes_no_per_kind_choice():
    """group.levels maps each level to its pick entries and one table
    names each group's level function, so batch never branches on kind."""
    assert kind_comparisons(SRC / "batch.py") == []


def test_kind_guard_finds_the_comparisons(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(kind, dim):\n"
        "    if kind == 'orthogonal':\n"
        "        return 1\n"
        "    x = 'symplectic' != kind\n"
        "    y = kind in ('a', 'b')\n"
        "    z = _LEVEL[kind]\n"
        "    return dim == 2\n"
    )
    assert kind_comparisons(probe) == [2, 4, 5]


def string_constants(node):
    """(line, text) of each string constant under a node, f-string pieces
    included."""
    return [
        (sub.lineno, sub.value)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]


def group_check_copies(path):
    """(line, text) of each string constant in a module that is one of the
    messages of group._check_group."""
    tree = ast.parse((SRC / "group.py").read_text())
    check = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_group"
    )
    messages = {text for _, text in string_constants(check)} - {"orthogonal", "symplectic"}
    found = string_constants(ast.parse(path.read_text(), filename=str(path)))
    return [(line, text) for line, text in found if text in messages]


def test_design_leaves_group_arguments_to_group():
    """orbit_decomposition and the potentials validate group and dimension
    through level_bits, so none of group's messages has a copy in design."""
    assert group_check_copies(SRC / "design.py") == []


def test_group_check_guard_finds_the_copies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(group, dim):\n"
        "    if dim < 1:\n"
        "        raise ValueError('dimension must be >= 1')\n"
        "    if group == 'symplectic' and dim % 2:\n"
        "        raise ValueError('symplectic groups need even dimension')\n"
        "    if group != 'orthogonal':\n"
        "        raise ValueError(f'unknown group kind {group!r}')\n"
        "    raise ValueError('tuple order must be >= 1')\n"
    )
    assert group_check_copies(probe) == [
        (3, "dimension must be >= 1"),
        (5, "symplectic groups need even dimension"),
        (7, "unknown group kind "),
    ]
