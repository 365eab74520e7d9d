"""The package namespace: every public name resolves to its home module's
object on first use, and importing a name loads only what it needs."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grouporders

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(grouporders.__path__))


def _fresh(statement: str) -> list[str]:
    """Run statement in a new interpreter; the grouporders submodules it loaded."""
    code = (f"import sys\n{statement}\n"
            "print(*sorted(m for m in sys.modules if m.startswith('grouporders.')))")
    path = [str(Path(grouporders.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.split()


def test_every_export_is_its_home_modules_object():
    names = grouporders.__all__
    assert len(set(names)) == len(names)
    assert set(names) <= set(dir(grouporders))
    for name in names:
        value = getattr(grouporders, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("grouporders."), name
        assert vars(home)[name] is value, name
    namespace: dict = {}
    exec("from grouporders import *", namespace)
    assert all(namespace[name] is getattr(grouporders, name) for name in names)


@pytest.mark.parametrize("name", ["no_such_name", "std_sign", "cli_main"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"'grouporders' has no attribute '{name}'"):
        getattr(grouporders, name)


def test_bare_import_loads_no_submodule():
    assert _fresh("import grouporders") == []


def test_flag_import_loads_only_znord_and_what_it_imports():
    assert _fresh("from grouporders import realize_flag") == [
        "grouporders.errors", "grouporders.exactlin", "grouporders.znord"]


def test_submodule_attribute_resolves_after_bare_import():
    loaded = _fresh("import grouporders\n"
                    "if grouporders.hall is not sys.modules['grouporders.hall']:\n"
                    "    raise SystemExit('grouporders.hall is not the submodule')")
    assert "grouporders.hall" in loaded


# the package root no longer fixes an import order, so each module must import
# cleanly on its own: this is the direct check for cycles between modules
@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_alone(name):
    assert f"grouporders.{name}" in _fresh(f"import grouporders.{name}")
