"""The public surface: the top-level names, the error classes and the README example."""
import inspect
import re
from pathlib import Path

import persfiber
from persfiber import ValidationError, cli, core, fiber, oracle, persistence, trees

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_validation_error_is_exported():
    defined = {
        name
        for module in (core, persistence, trees, fiber, oracle, cli)
        for name, obj in vars(module).items()
        if inspect.isclass(obj)
        and issubclass(obj, ValidationError)
        and obj.__module__ == module.__name__
    }
    assert "InvalidPlan" in defined
    assert defined <= set(persfiber.__all__)


def test_every_exported_name_resolves():
    assert len(persfiber.__all__) == len(set(persfiber.__all__))
    for name in persfiber.__all__:
        assert getattr(persfiber, name) is not None, name


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
