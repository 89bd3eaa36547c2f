"""Guards on the package source itself."""

import ast
import sys
from pathlib import Path

from pillowtiled.cocycle import StateCache
from pillowtiled.coverings import CyclicCoverSpec, cyclic_to_pillow
from pillowtiled.permsurf import orientation_double_cover

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
    # every walker shares the process-wide store through StateCache, which
    # holds nothing of its own; a private cache per line would build each
    # state again on every line that reaches it
    tree = ast.parse((SRC / "cocycle.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "StateCache"]
    stored = [node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    assert stored == [], stored
    # two instances hand out one state
    o, iota = orientation_double_cover(cyclic_to_pillow(CyclicCoverSpec(5, (1, 2, 2, 5))))
    key = StateCache().canonical_key(o, iota)
    assert StateCache().state(key) is StateCache().state(key)


def _involution_checks(src: Path = SRC) -> list[tuple[str, str]]:
    """(owner, what) of each use of the deck involution's matrix on H_1 in
    ``src``: each call of ``involution_on_homology``, and each read of
    ``.splitting`` in ``cocycle._move_matrix``.  The owner is
    module.function, module.Class.method or module.<module>."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ClassDef):
                owned = [(f"{top.name}.{getattr(node, 'name', '<class>')}", node) for node in top.body]
            else:
                owned = [(getattr(top, "name", "<module>"), top)]
            for name, part in owned:
                owner = f"{path.stem}.{name}"
                for node in ast.walk(part):
                    if isinstance(node, ast.Call) and getattr(
                            node.func, "id", getattr(node.func, "attr", None)) == "involution_on_homology":
                        found.append((owner, "involution_on_homology"))
                    elif owner == "cocycle._move_matrix" and isinstance(node, ast.Attribute) \
                            and node.attr == "splitting":
                        found.append((owner, ".splitting"))
    return found


def test_the_involution_is_checked_once_per_state(tmp_path):
    # involution_splitting checks the deck involution on the eigenlattices
    # it makes, once per state, and drops its matrix; a move's two exact
    # restrictions then make it commute with the involution, so no move
    # reads a splitting or builds the matrix again
    assert _involution_checks() == [("homology.involution_splitting", "involution_on_homology")]
    # the guard sees a per-move commutation check re-added, on the state's
    # splitting or on a fresh matrix, in a copy of the sources
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cocycle = tmp_path / "cocycle.py"
    text = cocycle.read_text()
    commute = "if lattice.matmul(I_t, M) != lattice.matmul(M, I_s): raise ArithmeticError('no commute')\n"
    for old, new in (
            ("    return M\n",
             "    I_s, I_t = src.splitting.action, tgt.splitting.action\n    " + commute + "    return M\n"),
            ("        M = _move_matrix(src.basis, tgt.basis, gen, label)\n",
             "        M = _move_matrix(src.basis, tgt.basis, gen, label)\n"
             "        I_s, I_t = (involution_on_homology(s.basis, k[2]) for s, k in ((src, key), (tgt, target)))\n"
             "        " + commute)):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cocycle.write_text(text)
    assert sorted(_involution_checks(tmp_path)) == [
        ("cocycle.StateCache.transition", "involution_on_homology"),
        ("cocycle._move_matrix", ".splitting"), ("cocycle._move_matrix", ".splitting"),
        ("homology.involution_splitting", "involution_on_homology")]


def _unit_keepers(src: Path = SRC) -> list[str]:
    """What in ``cocycle`` could keep a store unit other than once, when
    built: each call of ``store.keep`` outside a ``StateCache`` method, and
    each attribute of ``GenCycle`` set to the cache (a parameter annotated
    ``StateCache``) or to a store key (a tuple led by a string)."""
    tree = ast.parse((src / "cocycle.py").read_text())
    found = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            owned = [(f"{top.name}.{getattr(node, 'name', '<class>')}", node) for node in top.body]
        else:
            owned = [(getattr(top, "name", "<module>"), top)]
        for owner, part in owned:
            found += [f"{owner} calls store.keep" for node in ast.walk(part)
                      if isinstance(node, ast.Call) and ast.unparse(node.func) == "store.keep"
                      and not owner.startswith("StateCache.")]
    (cycle,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "GenCycle"]
    for fn in (node for node in cycle.body if isinstance(node, ast.FunctionDef)):
        cache = {a.arg for a in fn.args.args if a.annotation and "StateCache" in ast.unparse(a.annotation)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                for attr, value in pairs:
                    if not (isinstance(attr, ast.Attribute) and ast.unparse(attr.value) == "self"):
                        continue
                    if isinstance(value, ast.Name) and value.id in cache:
                        found.append(f"GenCycle.{attr.attr} holds the cache")
                    elif isinstance(value, ast.Tuple) and value.elts and isinstance(value.elts[0], ast.Constant) \
                            and isinstance(value.elts[0].value, str):
                        found.append(f"GenCycle.{attr.attr} holds a store key")
    return found


def test_store_units_are_kept_by_the_state_cache_alone(tmp_path):
    # every unit is weighed once, when the state cache keeps it: a
    # half-cycle holds neither the cache nor its own key, so it cannot keep
    # itself again, heavier, as it grows
    assert _unit_keepers() == []
    # the guard sees a re-added _grow, and the attributes it would need,
    # in a copy of the sources
    text = (SRC / "cocycle.py").read_text()
    slots = '    __slots__ = ("states", "cum", "powers", "nil")\n'
    init = "    def __init__(self, gen: str, moves: list[Transition], half: int):\n"
    grow = ("    def _grow(self, nbytes: int) -> None:\n"
            "        self._nbytes += nbytes\n"
            "        store.keep((self._key,), self, self._nbytes)\n\n")
    holds = ("    def __init__(self, gen: str, moves: list[Transition], half: int, cache: StateCache = None):\n"
             "        self._cache, self._key, self._nbytes = cache, ('cycle', moves[-1].target, gen, half), 0\n")
    assert text.count(slots) == text.count(init) == 1
    grown = text.replace(slots, slots + "\n" + grow)
    for copy, want in ((grown, ["GenCycle._grow calls store.keep"]),
                       (grown.replace(init, holds), ["GenCycle._cache holds the cache",
                                                     "GenCycle._grow calls store.keep",
                                                     "GenCycle._key holds a store key"])):
        (tmp_path / "cocycle.py").write_text(copy)
        assert sorted(_unit_keepers(tmp_path)) == want


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


def _unhooked_json(src: Path = SRC) -> list[tuple[str, int, str]]:
    """(file, line, name) of each json ``dumps`` or ``dump`` call and each
    ``JSONEncoder`` of ``src`` that does not pass ``default=json_default``,
    and of each function named ``json_ready``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("dumps", "dump", "JSONEncoder") and not any(
                        kw.arg == "default" and getattr(kw.value, "id", None) == "json_default"
                        for kw in node.keywords):
                    found.append((path.name, node.lineno, name))
            elif isinstance(node, ast.FunctionDef) and node.name == "json_ready":
                found.append((path.name, node.lineno, "json_ready"))
    return found


def test_json_goes_through_one_hook(tmp_path):
    # records hold the pipeline's own objects, and formats.json_default,
    # the default hook, encodes the leaves json cannot; a recursive copy
    # into lists and dicts before the encoder walks the record again was a
    # third of a warm ekz line
    assert _unhooked_json() == []
    # the guard sees a dumps and an encoder without the hook and a
    # json_ready in a copy of the sources
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cli = tmp_path / "cli.py"
    text = cli.read_text()
    for old, new in (("json.dumps(value, default=json_default)", "json.dumps(value)"),
                     ("JSONEncoder(sort_keys=True, default=json_default,", "JSONEncoder(sort_keys=True,")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text)
    formats = tmp_path / "formats.py"
    formats.write_text(formats.read_text() + "\n\ndef json_ready(obj):\n    return obj\n")
    assert [(name, what) for name, _, what in sorted(_unhooked_json(tmp_path))] == [
        ("cli.py", "dumps"), ("cli.py", "JSONEncoder"), ("formats.py", "json_ready")]


def _record_encoding(src: Path = SRC) -> list[tuple[str, int, str]]:
    """(owner, line, what) of each break in cli's one way to encode a
    record: a json encoder made anywhere but in the one module-level
    binding of ``_dumps``, which encodes records and their pieces; a json
    ``dumps`` or ``dump`` call outside ``_cell``, which encodes a CSV cell,
    or a second one inside it; a read of ``_PIECE`` outside
    ``_json_lines``, and a binding of it other than one module-level int
    literal.  The owner is the top-level function or class, or
    "<module>"."""
    found, seen = [], set()
    for top in ast.parse((src / "cli.py").read_text()).body:
        owner = getattr(top, "name", "<module>")
        targets = [t.id for t in getattr(top, "targets", ()) if isinstance(t, ast.Name)]
        literal = isinstance(top, ast.Assign) and isinstance(top.value, ast.Constant) \
            and type(top.value.value) is int
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None)
                if name == "JSONEncoder" and targets == ["_dumps"] and name not in seen:
                    seen.add(name)
                elif name in ("dumps", "dump") and owner == "_cell" and owner not in seen:
                    seen.add(owner)
                elif name in ("JSONEncoder", "dumps", "dump"):
                    found.append((owner, node.lineno, name))
            elif isinstance(node, ast.Name) and node.id == "_PIECE":
                if isinstance(node.ctx, ast.Load) and owner == "_json_lines":
                    continue
                if isinstance(node.ctx, ast.Store) and literal and "_PIECE" not in seen:
                    seen.add("_PIECE")
                    continue
                found.append((owner, node.lineno, "_PIECE"))
    return found


def test_records_are_encoded_in_one_place(tmp_path):
    # a record goes to json through cli._dumps alone, the encode method of
    # one encoder bound once, whole or in pieces of _PIECE items of a long
    # top-level sequence; the piece size is a module constant that no flag,
    # environment variable or RunConfig field sets
    assert _record_encoding() == []
    # the guard sees a second encoding path, a second encoder and a piece
    # size read from the environment in a copy of cli
    text = (SRC / "cli.py").read_text()
    for old, new in (("            parts.append(_dumps(record))\n",
                      "            parts.append(json.dumps(record, sort_keys=True, default=json_default))\n"),
                     ("_dumps(value[i:i + _PIECE])",
                      "json.JSONEncoder(sort_keys=True, default=json_default).encode(value[i:i + _PIECE])"),
                     ("\n_PIECE = 16\n", '\n_PIECE = int(os.environ.get("PILLOWTILED_PIECE", 16))\n')):
        assert text.count(old) == 1
        text = text.replace(old, new)
    (tmp_path / "cli.py").write_text(text)
    assert [(owner, what) for owner, _, what in sorted(_record_encoding(tmp_path), key=lambda f: f[1])] == [
        ("<module>", "_PIECE"), ("_json_lines", "dumps"), ("_json_lines", "JSONEncoder")]


def _private_imports(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, "other._name") for each private name that one src module
    takes from another: by ``from .other import _name``, or as an attribute
    of a sibling module it imports (``from . import other``).  An absolute
    import of the package fails test_src_imports_only_stdlib_numpy."""
    found, siblings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found |= {(module, f"{node.module}.{alias.name}") for alias in node.names
                          if alias.name.startswith("_")}
            else:
                siblings |= {alias.asname or alias.name for alias in node.names}
    found |= {(module, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and node.attr.startswith("_")}
    return found


def test_cross_module_private_imports():
    # a leading underscore keeps a name inside its module; each name another
    # src module reaches past that is pinned here, so a new one fails.  cli
    # runs the seeds of a lyapunov line as certify does
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = set().union(*(_private_imports(ast.parse(path.read_text(), filename=str(path)), path.stem)
                          for path in files))
    assert found == {("cli", "lyapunov._run_seeds")}, sorted(found)


def _memos(src: Path = SRC) -> dict[str, int | str | None]:
    """"module.function" -> maxsize of each functools memo of ``src``: None
    for ``cache`` or ``lru_cache(maxsize=None)``, 128 for a bare
    ``lru_cache``, and the source text of a maxsize that is not a
    literal.  A memo made by a call, not a decorator, is named
    "module:line"."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None))

    def maxsize(node):
        if name(node) == "cache":
            return None
        if not isinstance(node, ast.Call):
            return 128
        sizes = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "maxsize")]
        if not sizes:
            return 128
        return sizes[0].value if isinstance(sizes[0], ast.Constant) else ast.unparse(sizes[0])

    def is_memo(node):
        return name(node) in ("cache", "lru_cache")

    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in filter(is_memo, node.decorator_list):
                    found[f"{path.stem}.{node.name}"] = maxsize(dec)
                    decorators.add(dec)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_memo(node) and node not in decorators:
                found[f"{path.stem}:{node.lineno}"] = maxsize(node)
    return found


# every functools memo of src, by name, with its bound; what a run keeps
# without a bound of its own goes through the store's one byte budget
BOUNDED_MEMOS = {"bform._jacobi_rule": 1024}


def test_no_unbounded_memo_outside_the_store(tmp_path):
    # an unbounded memo grows with every distinct argument for the life of
    # the process, outside the budget that drops states, moves and cycles
    memos = _memos()
    assert [name for name, size in memos.items() if size is None] == []
    assert memos == BOUNDED_MEMOS
    # the guard sees each unbounded form in a copy of the sources
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    lattice = tmp_path / "lattice.py"
    text = lattice.read_text()
    for anchor in ("def hermite(", "def kernel_basis("):
        assert text.count(anchor) == 1, anchor
    text = text.replace("def hermite(", "@lru_cache(maxsize=None)\ndef hermite(")
    text = text.replace("def kernel_basis(", "@functools.cache\ndef kernel_basis(")
    lattice.write_text(text + "\n_eye = lru_cache(None)(eye)\n_shape = functools.cache(shape)\n")
    last = len(lattice.read_text().splitlines())
    assert _memos(tmp_path) == {**BOUNDED_MEMOS, "lattice.hermite": None,
                                "lattice.kernel_basis": None, f"lattice:{last - 1}": None,
                                f"lattice:{last}": None}


# what catches an orbit or size cap: the caps themselves and their bases
CAP_CATCHERS = {"OrbitCapExceeded", "SizeCapExceeded", "RuntimeError", "Exception", "BaseException"}


def _cap_handlers(tree: ast.Module, module: str) -> list[str]:
    """"module.function" of each ``except`` clause that can catch an orbit or
    size cap (a bare one included), named by its innermost function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ExceptHandler) and (node.type is None or CAP_CATCHERS & {
                getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}):
            found.append(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_caps_are_caught_only_by_the_cli_and_the_channel_rule():
    # a cap ends a CLI line in the resource exit (cli.run) or leaves one
    # certify channel undecided (lyapunov._channel); a later channel goes
    # through that rule, not through a cap branch of its own
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [name for path in files
             for name in _cap_handlers(ast.parse(path.read_text(), filename=str(path)), path.stem)]
    assert sorted(found) == ["cli.run", "lyapunov._channel"], found
    # the guard sees a cap caught inside a nested function, by a base class
    # or by a bare except
    text = ("def f():\n    def g():\n        try:\n            pass\n"
            "        except (ValueError, permsurf.SizeCapExceeded):\n            pass\n"
            "try:\n    pass\nexcept RuntimeError:\n    pass\n"
            "def h():\n    try:\n        pass\n    except:\n        pass\n"
            "def k():\n    try:\n        pass\n    except ValueError:\n        pass\n")
    assert _cap_handlers(ast.parse(text), "m") == ["m.g", "m.<module>", "m.h"]


def _private_numpy_names(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, "numpy.x._y") for each private numpy name a src module
    uses, up to its first private part: imported (``from numpy.linalg
    import _umath_linalg``) or reached as an attribute of numpy or of a
    name imported from it (``np.linalg._umath_linalg``)."""
    def private(path: str) -> str | None:
        parts = path.split(".")
        for i, part in enumerate(parts):
            if part.startswith("_") and not part.endswith("__"):
                return ".".join(parts[:i + 1])
        return None

    paths = {}  # local name -> the numpy path it stands for
    used = []  # every numpy path imported or reached
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "numpy":
                    paths[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
                    used.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] == "numpy":
            for alias in node.names:
                paths[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                used.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in paths:
                used.append(".".join([paths[base.id], *reversed(chain)]))
    return {(module, name) for name in map(private, used) if name is not None}


def test_private_numpy_names():
    # numpy may move or drop a private name in any release; the one src
    # uses is pinned here, so a new one fails: lyapunov forms Q from the
    # raw factor of np.linalg.qr(mode="raw") with the gufunc that
    # np.linalg.qr itself calls for it
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = set().union(*(_private_numpy_names(ast.parse(path.read_text(), filename=str(path)),
                                               path.stem) for path in files))
    assert found == {("lyapunov", "numpy.linalg._umath_linalg")}, sorted(found)
    # the guard sees each way of reaching one
    for text, want in [
        ("import numpy as np\nx = np._core.multiarray.dot\n", "numpy._core"),
        ("from numpy.linalg import _umath_linalg as u\n", "numpy.linalg._umath_linalg"),
        ("import numpy._core.umath\n", "numpy._core"),
        ("from numpy import linalg\nq = linalg._linalg.qr\n", "numpy.linalg._linalg"),
    ]:
        assert _private_numpy_names(ast.parse(text), "m") == {("m", want)}, text
    assert _private_numpy_names(ast.parse("import numpy as np\nv = np.__version__\n"), "m") == set()


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

    roots = [("cli", "main"), ("store", "clear")]
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


# classes that a CLI record holds whole, splatted with vars() or encoded by
# formats.json_default, so every field is read by the output itself
WRITTEN_WHOLE = {"CoverReport", "EKZReport", "LyapunovEstimate"}
# fields that stay with no attribute read, each with its reason
UNREAD_ON_PURPOSE = {
    "BFormReport.q_has_simple_pole": "part of the pairing report the README documents",
    "OrbitCapExceeded.cap": "the cap a caller that catches the exception can read",
}


def _stored_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of every dataclass field, property and attribute that
    ``__init__`` sets on ``self``, for each class of one module."""
    out = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.append((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef):
                if any(getattr(d, "id", None) == "property" for d in node.decorator_list):
                    out.append((cls.name, node.name))
                elif node.name == "__init__":
                    out += [
                        (cls.name, t.attr)
                        for t in ast.walk(node)
                        if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                        and getattr(t.value, "id", None) == "self"
                    ]
    return out


def _reads_by_module(src: Path) -> dict[str, set[str]]:
    """Attribute names each package module reads, and each module that a
    read there can reach: itself and every package module it imports,
    directly or through others.  The benchmark reads as one more module
    that imports the whole package."""
    paths = {path.stem: path for path in sorted(src.glob("*.py"))}
    assert paths, f"no sources under {src}"
    imports = {mod: {entry[1] for entry in _module_names(path)[1].values() if entry[0] != "ext"}
               for mod, path in paths.items()}
    reach = {}
    for mod in paths:
        seen, todo = {mod}, [mod]
        while todo:
            for dep in imports[todo.pop()] & set(paths):
                if dep not in seen:
                    seen.add(dep)
                    todo.append(dep)
        reach[mod] = seen
    trees = {mod: [ast.parse(path.read_text(), filename=str(path))] for mod, path in paths.items()}
    trees[None] = [ast.parse(p.read_text()) for p in sorted(PERFBENCH.rglob("*.py"))]
    reach[None] = set(paths)
    reads = {mod: set() for mod in paths}
    for mod, tree_list in trees.items():
        names = {
            node.attr
            for tree in tree_list
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        for target in reach[mod]:
            reads[target] |= names
    return reads


def _unread_fields(src: Path = SRC) -> list[str]:
    """Stored fields of ``src`` classes that no attribute read names in a
    module that can hold the class's instances (its own module, one that
    imports it, or the benchmark), less the exemptions above.  A read in
    ``cocycle`` of ``.cycles`` counts for the classes of ``cocycle`` and
    of the modules it imports, not for a field of that name in
    ``lyapunov``."""
    reads = _reads_by_module(src)
    return sorted(
        f"{cls}.{name}"
        for path in sorted(src.glob("*.py"))
        for cls, name in _stored_fields(ast.parse(path.read_text(), filename=str(path)))
        if name not in reads[path.stem] and cls not in WRITTEN_WHOLE
        and f"{cls}.{name}" not in UNREAD_ON_PURPOSE
    )


def test_every_field_is_read(tmp_path):
    # a stored value that nothing reads costs memory and a reader's time;
    # src/ keeps only what its own code, the benchmark or a whole-record
    # writer reads
    unread = _unread_fields()
    assert not unread, "fields that nothing reads: " + ", ".join(unread)
    # the guard sees a field added to a copy of the sources and never read
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cocycle = tmp_path / "cocycle.py"
    text = cocycle.read_text()
    assert "    target: tuple[Perm, Perm, Perm]\n" in text
    cocycle.write_text(text.replace(
        "    target: tuple[Perm, Perm, Perm]\n",
        "    target: tuple[Perm, Perm, Perm]\n    never_read_anywhere: int = 0\n"))
    assert _unread_fields(tmp_path) == ["Transition.never_read_anywhere"]
    # and a walker that kept its own cycles and current state: cocycle reads
    # .cycles (the cache's, a basis's), but cocycle cannot hold a walker
    lyapunov = tmp_path / "lyapunov.py"
    text = lyapunov.read_text()
    assert "        self._memo: dict[tuple[int, str, int], tuple[lattice.Pencil, int, int]] = {}\n" in text
    lyapunov.write_text(text.replace(
        "        self._memo: dict[tuple[int, str, int], tuple[lattice.Pencil, int, int]] = {}\n",
        "        self._memo: dict[tuple[int, str, int], tuple[lattice.Pencil, int, int]] = {}\n"
        "        self.cycles: dict = {}\n        self.key = self.anchor\n"))
    assert _unread_fields(tmp_path) == [
        "Transition.never_read_anywhere", "_Walker.cycles", "_Walker.key"]
