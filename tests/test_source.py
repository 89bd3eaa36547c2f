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


def test_json_is_written_without_indent():
    # with an indent, json.dumps falls back from its C encoder to the pure
    # Python one, which took a third of an orbit-heavy run; a ** mapping
    # could hold an indent, so it counts too
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("dumps", "dump", "JSONEncoder")
            and any(kw.arg == "indent" or kw.arg is None for kw in node.keywords)
        ]
    assert not found, "json calls with an indent in src/pillowtiled: " + ", ".join(found)


ROOT = SRC.parents[1]
PERFBENCH = ROOT / "perfbench"


def _module_names(path: Path) -> tuple[dict, dict, list]:
    """(top-level defs, imported names, module-level statements) of a module.

    Imported names map a local name to ("mod", module) for a sibling
    module, ("def", module, name) for a name taken from one, or ("ext",)
    for a module from outside the package.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    defs, imported, body = {}, {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    imported[local] = ("mod", alias.name)
                else:
                    imported[local] = ("def", node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = ("ext",)
        elif not isinstance(node, ast.ImportFrom):
            body.append(node)
    return defs, imported, body


def _perfbench_roots(tables, tracer: bool = True) -> set:
    """(module, name) pairs the benchmark uses: every name it imports from
    the package, every function or class it reads off an imported package
    module, and, unless ``tracer`` is false, every function its tracer
    wraps by name (``Class.method`` for a method)."""
    roots = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pillowtiled"):
                mod = node.module.partition(".")[2]
                for alias in node.names:
                    if mod:
                        roots.add((mod, alias.name))
                    elif alias.name in tables:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.attr in tables[aliases[node.value.id]][0]):
                roots.add((aliases[node.value.id], node.attr))
        for node in tree.body:
            if (tracer and isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]):
                roots.update(ast.literal_eval(node.value))
    return roots


def _unreached_src_names(tracer: bool = True) -> list[str]:
    """Top-level functions and classes of the package, and methods of its
    classes, that nothing reaches from the command line, the package
    exports, the benchmark or the cache hooks the tests call; with
    ``tracer`` false, the functions the benchmark tracer wraps by name do
    not count as reached for that alone.

    A name in a module's namespace resolves to its own def or to the def
    it was imported from; ``mod.name`` on an imported sibling module
    resolves into that module.  A class reaches its dunder methods, and
    any other method once its name is read as an attribute of an object
    (not of a module, such as ``np.zeros``) anywhere in reached code.
    """
    files = {path.stem: path for path in sorted(SRC.glob("*.py"))}
    assert files, f"no sources under {SRC}"
    tables = {mod: _module_names(path) for mod, path in files.items()}

    def resolve(mod: str, name: str):
        defs, imported, _ = tables[mod]
        if name in defs:
            return (mod, name)
        entry = imported.get(name)
        if entry is not None and entry[0] == "def" and entry[1] in tables:
            return resolve(entry[1], entry[2])
        return None

    roots = [("cli", "main"), ("orbit", "_clear_memo"), ("cocycle", "_clear_shared_cache")]
    roots += [("__init__", name) for name in tables["__init__"][1]]
    roots += sorted(_perfbench_roots(tables, tracer))
    reached: set = set()
    methods_reached: set = set()
    attrs: set = set()
    queue: list = []

    def visit(mod: str, nodes) -> None:
        _, imported, _ = tables[mod]
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                target = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                entry = imported.get(getattr(node.value, "id", None), ("obj",))
                if entry[0] != "mod":
                    # an attribute of an object or a class may be a method of
                    # any class; one of an outside module (np.zeros) is not
                    if entry[0] != "ext":
                        attrs.add(node.attr)
                    continue
                target = resolve(entry[1], node.attr)
            else:
                continue
            if target is not None:
                queue.append(target)

    for mod, (_, _, body) in tables.items():
        visit(mod, body)
    for mod, name in roots:
        cls, _, meth = name.partition(".")
        target = resolve(mod, cls)
        assert target is not None, f"entry point {mod}.{name} is not defined"
        queue.append(target)
        if meth:
            attrs.add(meth)
    grew = True
    while grew:
        while queue:
            key = queue.pop()
            if key in reached:
                continue
            reached.add(key)
            node = tables[key[0]][0][key[1]]
            if isinstance(node, ast.ClassDef):
                visit(key[0], node.bases + node.decorator_list
                      + [n for n in node.body if not isinstance(n, ast.FunctionDef)])
            else:
                visit(key[0], [node])
        # a method reached since the last pass may read a name or attribute
        # that reaches more, so repeat until a pass adds nothing
        grew = False
        for mod, cls in sorted(reached):
            node = tables[mod][0][cls]
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in node.body:
                if not isinstance(meth, ast.FunctionDef):
                    continue
                key = (mod, cls, meth.name)
                dunder = meth.name.startswith("__") and meth.name.endswith("__")
                if key not in methods_reached and (dunder or meth.name in attrs):
                    methods_reached.add(key)
                    visit(mod, [meth])
                    grew = True
    unreached = []
    for mod, (defs, _, _) in tables.items():
        for name, node in defs.items():
            if (mod, name) not in reached:
                unreached.append(f"{mod}.{name}")
            elif isinstance(node, ast.ClassDef):
                unreached += [
                    f"{mod}.{name}.{meth.name}"
                    for meth in node.body
                    if isinstance(meth, ast.FunctionDef)
                    and (mod, name, meth.name) not in methods_reached
                ]
    return sorted(unreached)


def test_every_src_name_is_reached():
    # src/ keeps what the pipeline runs: a cross-check oracle that only the
    # tests call lives with the tests (tests/reference.py)
    unreached = _unreached_src_names()
    assert not unreached, "names under src/pillowtiled that nothing reaches: " + ", ".join(unreached)


def test_tracer_only_names():
    # a name that only the benchmark tracer's FUNCTIONS table keeps alive is
    # dead code the pipeline never runs.  smith_normal_form is the one such
    # name: the homology basis needs no torsion check, so its body is gone,
    # and it stays as a stub, a docstring and one raise, only because the
    # tracer looks it up by name.  A benchmark change that drops it from
    # FUNCTIONS lets the stub go.  No other name may join it, and the stub
    # may not grow a body that returns under the traced name.
    only_traced = set(_unreached_src_names(tracer=False)) - set(_unreached_src_names())
    assert only_traced == {"lattice.smith_normal_form"}, sorted(only_traced)
    tree = ast.parse((SRC / "lattice.py").read_text())
    (stub,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "smith_normal_form"]
    docstring, *rest = stub.body
    assert ast.get_docstring(stub) and isinstance(docstring, ast.Expr), ast.dump(docstring)
    assert [type(node) for node in rest] == [ast.Raise], [ast.dump(node) for node in rest]
