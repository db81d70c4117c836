import ast
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


def test_src_holds_no_assert_statement():
    # python -O strips assert, so no control flow or check may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
