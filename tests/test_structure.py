import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mahf"


def test_no_module_imports_another_modules_private_name():
    # a module's _private names are its own decisions: another module that
    # needs one should get it through a public name, so that each decision
    # stays behind one module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    assert not found, found
