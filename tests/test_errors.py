"""The error contract: every failure is an `errors.PcohomError` carrying its
exit code, and `src/` raises nothing else."""

import ast
import inspect
from pathlib import Path

from pcohom import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "pcohom"

# raises that must stay builtin: json's `default` hook signals an object it
# cannot serialize by TypeError
EXEMPT = {("cli.py", "_json_default", "TypeError")}


def error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if cls.__module__ == errors.__name__]


def test_every_error_is_a_pcohom_error_with_an_exit_code():
    classes = error_classes()
    for cls in classes:
        assert issubclass(cls, errors.PcohomError), cls
        assert cls.exit_code in {1, 2, 3}, cls
    assert {cls for cls in classes if cls.exit_code == 3} == {
        errors.SpecError, errors.GroupTooLarge, errors.ClosureCapExceeded}
    assert {cls for cls in classes if cls.exit_code == 2} == {
        errors.BudgetExceeded}
    # builtin bases that library callers catch
    assert issubclass(errors.SpecError, ValueError)
    assert issubclass(errors.EdgeCheckFailed, ValueError)
    assert issubclass(errors.UnkeyedArgument, TypeError)
    assert issubclass(errors.OracleDisagreement, RuntimeError)
    assert issubclass(errors.TransgressionSolveFailed,
                      errors.OracleDisagreement)


def raises(tree):
    """(innermost enclosing function, raised name) of every raise in tree
    that is not a bare re-raise; the name is None for an expression that
    is not a plain or called name."""
    out = []

    def visit(node, fn):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((fn, exc.id if isinstance(exc, ast.Name) else None))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def test_src_raises_only_pcohom_errors():
    names = {cls.__name__ for cls in error_classes()}
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for fn, name in raises(ast.parse(path.read_text())):
            if (path.name, fn, name) in EXEMPT:
                seen.add((path.name, fn, name))
            else:
                assert name in names, f"{path.name}: {fn} raises {name}"
    assert seen == EXEMPT
    probe = "def f():\n    raise ValueError('x')\n    raise\n"
    assert raises(ast.parse(probe)) == [("f", "ValueError")]
