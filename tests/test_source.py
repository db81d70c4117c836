import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repfreq"


def test_every_function_reads_each_of_its_parameters():
    # A parameter the body never reads is a knob that does nothing.
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = fn.args
                params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
                names = (n for s in fn.body for n in ast.walk(s) if isinstance(n, ast.Name))
                read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
                unread += [f"{path.name}:{fn.lineno} {fn.name}({p})" for p in sorted(params - read - {"self", "cls"})]
    assert unread == []


def _loads(tree) -> list[str]:
    """Every name and attribute that ``tree`` reads."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def test_every_private_definition_is_read_in_src():
    # A private function, class, constant or method that nothing reads is
    # dead code. Reads inside the definition itself (recursion) do not count;
    # an import is not a read.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _loads(tree))
    unread = []
    for file, tree in trees.items():
        nodes = [*tree.body, *(item for cls in tree.body if isinstance(cls, ast.ClassDef) for item in cls.body)]
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, own = [node.name], Counter(_loads(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node in tree.body:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names, own = [t.id for t in targets if isinstance(t, ast.Name)], Counter()
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and reads[name] <= own[name]:
                    unread.append(f"{file}:{node.lineno} {name}")
    assert unread == []


def test_src_holds_no_assert_statement():
    # python -O strips assert, so no control flow or check may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_constant_nodes(tree) -> set[int]:
    """The ids of every node inside the value of a module-level assignment."""
    values = [node.value for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value]
    return {id(n) for value in values for n in ast.walk(value)}


def test_every_tolerance_is_a_named_module_constant():
    # A float below 1e-6 is a tolerance (or a dust or merge cut). Each one
    # lives in a module-level constant whose comment gives its unit, so none
    # sits bare in a comparison, a keyword argument or a parameter default.
    bare = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = _module_constant_nodes(tree)
        bare += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-6
            and id(node) not in named
        ]
    assert bare == []


def test_default_tol_is_read_only_as_a_default():
    # DEFAULT_TOL is what --tol sets. A check that borrows it for its value
    # (the vertex enumerator's unit-row tests did) would seem to follow --tol
    # without doing so; such a check names its own constant.
    borrowed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defaults = [
            *(d for fn in ast.walk(tree) if isinstance(fn, ast.arguments) for d in (*fn.defaults, *fn.kw_defaults) if d),
            *(kw.value for call in ast.walk(tree) if isinstance(call, ast.Call) for kw in call.keywords if kw.arg == "default"),
        ]
        allowed = {id(n) for d in defaults for n in ast.walk(d)}
        borrowed += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and "DEFAULT_TOL" in (getattr(node, "id", None), getattr(node, "attr", None))
            and id(node) not in allowed
        ]
    assert borrowed == []


def test_every_closeness_test_states_its_relative_tolerance():
    # np.allclose, np.isclose and math.isclose also apply a relative
    # tolerance (1e-5 and 1e-9 by default) that no constant names, so the
    # census above cannot see it: a call leaves it implicit only by mistake.
    implicit = []
    for path in sorted(SRC.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            explicit = len(call.args) > 2 or any(kw.arg in ("rtol", "rel_tol") for kw in call.keywords)
            if name in ("allclose", "isclose") and not explicit:
                implicit.append(f"{path.name}:{call.lineno} {name}")
    assert implicit == []
