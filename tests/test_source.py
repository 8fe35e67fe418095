"""Source-level checks on the koblitz package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import koblitz

SOURCES = sorted(Path(koblitz.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert, so invariants must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_no_global_statements():
    # module state changed from inside a function is state every caller shares
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert SOURCES and not found, found


def test_public_names_have_a_caller():
    # scalar and brute-force routes used only by tests live in tests/oracles.py,
    # and the proof's lemmas in tests/lemmas.py
    referenced = set()
    for path in SOURCES + DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    public = {
        node.name
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert DEMOS and public
    assert sorted(public - referenced) == []


def test_no_oracle_routes_in_package():
    # brute-force and oracle routes are test code and live in tests/oracles.py
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and ("oracle" in node.name.lower() or "brute" in node.name.lower())
    ]
    assert SOURCES and not found, found


# Each module imports only from modules before it in this order.
LAYERS = [
    "errors",
    "primes",
    "classnumbers",
    "curves",
    "constants",
    "twinseries",
    "harness",
    "cli",
]


def test_imports_point_down_the_layers():
    modules = [path for path in SOURCES if path.stem != "__init__"]
    assert sorted(LAYERS) == sorted(path.stem for path in modules)
    found = []
    for path in modules:
        rank = LAYERS.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            # `from .mod import x` names mod; `from . import a, b` names a and b
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            found += [f"{path.stem} -> {t}" for t in targets if LAYERS.index(t) >= rank]
    assert found == []


def _is_record(node: ast.ClassDef) -> bool:
    """A @dataclass or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
    )


def test_record_fields_are_read():
    # a field only tests read is state to build and keep for nothing
    read = {
        node.attr
        for path in SOURCES + DEMOS
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {
        f"{path.stem}.{node.name}.{stmt.target.id}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    assert fields and DEMOS
    assert sorted(f for f in fields if f.rsplit(".", 1)[1] not in read) == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy's import alone was most of the CLI's start-up time, the test
    # dependencies are not runtime dependencies, and Fraction arithmetic
    # (fractions imports decimal) belongs to the GL2 enumeration oracle
    modules = ("scipy", "mpmath", "hypothesis", "pytest", "fractions", "decimal")
    code = f"import sys, koblitz.cli; print([m for m in {modules} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(koblitz.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre rule is data; numpy before 2.0 imports
    # numpy.polynomial itself, so only what the package adds counts
    code = (
        "import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
        "import koblitz.cli; print(before, 'numpy.polynomial' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(koblitz.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    before, after = out.stdout.split()
    assert after == before


def test_one_fft_site_in_package():
    # every census and box histogram, and any later transform, goes through
    # primes._exact_correlation: no other function of the package names fft
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    (site,) = [
        node for node in trees["primes"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_exact_correlation"
    ]

    def fft_refs(root):
        return [
            node
            for node in ast.walk(root)
            if (isinstance(node, ast.Attribute) and "fft" in node.attr)
            or (isinstance(node, ast.Name) and "fft" in node.id)
            or (isinstance(node, ast.alias) and "fft" in node.name)
        ]

    everywhere = [node for tree in trees.values() for node in fft_refs(tree)]
    assert fft_refs(site) and len(everywhere) == len(fft_refs(site))


def test_one_weighted_assembly_in_curves():
    # censuses and box histograms turn trace tables into counts in
    # _histograms alone, and only _trace_tables builds the tables
    path = Path(koblitz.__file__).parent / "curves.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    fields = {"t_log", "t_a0", "t_0b"}

    def sites(kind, name):
        return {
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, kind) and getattr(node, name) in fields
        }

    assert sites(ast.Attribute, "attr") == {"_histograms"}
    assert sites(ast.keyword, "arg") == {"_trace_tables"}


def test_one_length_rule_in_package():
    # transform lengths are 2^a 3^b 5^c: primes._length is the only reader
    # of _smooth, and no power of two is rounded up by bit_length anywhere
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    refs = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_smooth")
        or (isinstance(node, ast.Attribute) and node.attr == "_smooth")
        or (isinstance(node, ast.alias) and node.name == "_smooth")
    ]
    (length,) = [
        node for node in trees["primes"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_length"
    ]
    inside = [node for node in ast.walk(length) if node in refs]
    found = [
        f"{stem}:{node.lineno}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "bit_length"
    ]
    assert inside and len(inside) == len(refs) and found == []


def test_one_strike_site_in_primes():
    # every sieve strikes composites in _odd_flags: the only assignments of
    # False into a stepped slice in primes.py lie in one function
    path = Path(koblitz.__file__).parent / "primes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and node.value.value is False
        and any(
            isinstance(t, ast.Subscript)
            and isinstance(t.slice, ast.Slice)
            and t.slice.step is not None
            for t in node.targets
        )
    }
    assert len(sites) == 1, sites


def test_one_integer_flag_layout_in_primes():
    # _odd_flags' odd-only entries are laid out over the integers by
    # sieve_window alone; sieve takes its flags from sieve_window
    path = Path(koblitz.__file__).parent / "primes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_odd_flags"
    }
    assert callers == {"_odd_flags", "sieve_window"}, callers


def test_one_factorization_path_in_primes():
    # factorize trial-divides by _TRIAL_PRIMES within its budget; Miller-Rabin
    # and Pollard-Brent are not package routes, and curves reads primality
    # off one sieve
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    defined = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("is_prime", "_pollard_brent")
    ]
    assert defined == []
    reads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_TRIAL_PRIMES"
            and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "_TRIAL_PRIMES")
        or (isinstance(node, ast.alias) and node.name == "_TRIAL_PRIMES")
    ]
    (factorize,) = [
        node for node in trees["primes"].body
        if isinstance(node, ast.FunctionDef) and node.name == "factorize"
    ]
    inside = [node for node in ast.walk(factorize) if node in reads]
    assert reads and len(inside) == len(reads)
    (check,) = [
        node for node in trees["curves"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_primes"
    ]
    assert any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sieve"
        for node in ast.walk(check)
    )


def test_cli_opens_files_only_in_atomic_open():
    # every file the CLI writes appears whole or not at all
    path = Path(koblitz.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (site,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_atomic_open"
    ]

    def opens(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "open")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
            )
        ]

    assert len(opens(site)) == 1 and len(opens(tree)) == 1
