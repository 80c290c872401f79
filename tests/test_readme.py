"""The README's library tour runs, and every ``expr  # value`` line holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_values():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    src = blocks[0]
    lines = src.splitlines()
    ns: dict = {}
    checked = []
    for stmt in ast.parse(src).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), ns)
            continue
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
        assert tail.strip().startswith("#"), f"no value after {ast.unparse(stmt)}"
        # the value, then an optional note in parentheses after a space
        want = re.sub(r"\s+\(.*\)$", "", tail.split("#", 1)[1].strip())
        got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), ns)
        assert repr(got) == want, (ast.unparse(stmt), got, want)
        checked.append(want)
    assert checked == ["True", "None", "12", "12", "frozenset({0, 1})"]
