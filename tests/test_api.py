import ast
from pathlib import Path

import dcmwalk

# Defaults on public functions and methods of the package. A new option has
# to raise this bound, so it shows in the diff.
MAX_PUBLIC_DEFAULTS = 25


def count_defaults(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def public_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield fn


def test_public_optional_parameters_are_bounded():
    total = 0
    for path in sorted(Path(dcmwalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += sum(count_defaults(fn) for fn in public_functions(tree))
    assert 0 < total <= MAX_PUBLIC_DEFAULTS
