"""Guards on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pillowtiled"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, and the exact checks must still run
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [
        f"{path.name}:{lineno}"
        for path in files
        for lineno in sorted(
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        )
    ]
    assert not found, "assert statements in src/pillowtiled: " + ", ".join(found)


def test_src_imports_only_stdlib_numpy():
    # the package depends on numpy and the standard library alone, at
    # module level and inside functions alike
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not found, "imports beyond stdlib and numpy: " + ", ".join(found)


def test_int64_only_in_lattice():
    # the guarded product in lattice.matmul is the one place where exact
    # integers meet a fixed width
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [path.name for path in files if "int64" in path.read_text()]
    assert found == ["lattice.py"], found


def test_no_function_level_imports_in_src():
    # every import sits at module level, where a reader sees the module's
    # dependencies at once and the import runs once
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [
                f"{path.name}:{node.lineno} in {func.name}"
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert not found, "function-level imports in src/pillowtiled: " + ", ".join(found)


def test_one_state_cache_in_src():
    # every walker shares the process cache in cocycle.py; a private cache
    # per line would build each state again on every line that reaches it
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        shared = {
            id(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_shared"]
        }
        found += [
            f"{path.name}:{'_shared' if id(node) in shared else node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "StateCache"
        ]
    assert found == ["cocycle.py:_shared"], found


def test_src_reads_no_environment():
    # no knobs: a tuning constant such as lyapunov._RENORM_NATS is a module
    # constant, and no environment variable may override it or anything else
    env = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in env:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name in env
                ]
    assert not found, "environment reads in src/pillowtiled: " + ", ".join(found)
