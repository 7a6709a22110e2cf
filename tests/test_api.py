"""The public surface: the top-level names, the error classes and the README example."""
import inspect
import json
import os
import re
import subprocess
import sys
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


def test_importing_the_package_imports_every_traced_module():
    # bench/tracer.py binds its wrappers right after `import persfiber`, so a deferred
    # submodule import would leave its names unwrapped. A fresh interpreter sees the
    # imports as a user's program does, with no other test having loaded a submodule.
    root = Path(__file__).resolve().parent.parent
    script = (
        "import importlib.util, json\n"
        "import persfiber\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(root / 'bench' / 'tracer.py')!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "t.uninstall()\n"
        "print(json.dumps(t.state['absent']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
