"""The lazy package: what each command loads, and that every public name resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treezeta
from treezeta.cli import DEPTH_CAP

SRC = Path(treezeta.__file__).resolve().parent.parent
EXACT_LAYER = {"exact", "special_values", "genfun"}


# Runs before the code under test and, at exit, writes every module then loaded
# as the last line of stderr.
_REPORT_MODULES = (
    "import atexit, json, sys; "
    "atexit.register(lambda: sys.stderr.write('\\n' + json.dumps(sorted(sys.modules)) + '\\n'))\n"
)


def loaded_by(code: str, exit_code: int = 0) -> set[str]:
    """numpy and the treezeta.* modules (unprefixed) that a fresh process running code loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES + code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == exit_code, proc.stderr[-400:]
    names = json.loads(proc.stderr.splitlines()[-1])
    return {n.removeprefix("treezeta.") for n in names if n.startswith("treezeta.") or n == "numpy"}


def cli_loads(*argv: str, exit_code: int = 0) -> set[str]:
    """What ``python -m treezeta *argv --format json`` loads."""
    args = ["treezeta", *argv, "--format", "json"]
    code = f"import runpy; sys.argv = {args!r}; runpy.run_module('treezeta', run_name='__main__')"
    return loaded_by(code, exit_code)


class TestImportSets:
    def test_import_treezeta_loads_numpy_and_the_quadrature_only(self):
        # numpy must load with the package: the benchmark's setup probe reads
        # sys.modules['numpy'] right after `import treezeta` until ROADMAP item 1.
        assert loaded_by("import treezeta") == {"errors", "validate", "spectral", "numpy"}

    @pytest.mark.parametrize(
        "argv", [("zeta", "--q", "3", "--s", "2,1"), ("heat", "--q", "3", "--t", "0.5")]
    )
    def test_quadrature_commands_load_no_exact_layer(self, argv):
        assert cli_loads(*argv) == {"errors", "validate", "spectral", "cli", "numpy"}

    @pytest.mark.parametrize("argv", [("poly", "--n", "6"), ("values", "--q", "3")])
    def test_exact_commands_load_no_dyck_battery_or_genfun(self, argv):
        loaded = cli_loads(*argv)
        assert {"exact", "special_values"} <= loaded
        assert not loaded & {"dyck", "verify", "genfun"}

    def test_dyck_loads_no_battery(self):
        # the exact tables load only for the identity check's default table
        loaded = cli_loads("dyck", "--n", "5")
        assert "dyck" in loaded and not loaded & {"verify", "special_values"}

    def test_verify_loads_everything(self):
        loaded = cli_loads("verify", "fe", "--q", "2")
        assert EXACT_LAYER | {"dyck", "verify", "spectral", "cli"} <= loaded

    def test_refused_depth_loads_no_exact_layer(self):
        loaded = cli_loads("values", "--q", "3", "--neg", str(DEPTH_CAP + 1), exit_code=2)
        assert not loaded & EXACT_LAYER


class TestLazyPackage:
    @pytest.mark.parametrize("name", treezeta.__all__)
    def test_name_is_its_home_modules_object(self, name):
        obj = getattr(treezeta, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("treezeta.")
        assert getattr(home, name) is obj

    def test_first_access_loads_the_home_module_and_caches_the_name(self):
        script = (
            "import treezeta; assert 'treezeta.special_values' not in sys.modules; "
            "f = treezeta.zeta_pos; from treezeta import special_values; "
            "assert f is special_values.zeta_pos and vars(treezeta)['zeta_pos'] is f"
        )
        assert "special_values" in loaded_by(script)

    def test_dir_covers_all_before_any_access(self):
        loaded = loaded_by("import treezeta; assert set(treezeta.__all__) <= set(dir(treezeta))")
        assert not loaded & EXACT_LAYER

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from treezeta import *", namespace)
        assert {name: namespace[name] for name in treezeta.__all__} == {
            name: getattr(treezeta, name) for name in treezeta.__all__
        }

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            treezeta.no_such_name
        assert not hasattr(treezeta, "RatPoly")

    def test_submodules_import_by_name(self):
        from treezeta import cli, dyck, genfun, special_values, spectral, verify

        for module in (cli, dyck, genfun, special_values, spectral, verify):
            assert module is sys.modules[module.__name__]

    def test_cut_keeps_its_genfun_names(self):
        from treezeta import genfun, validate

        assert genfun.SpectrumCut is validate.SpectrumCut
        assert genfun.spectrum_cut(3) == validate.SpectrumCut(*validate._edges(3))
        assert genfun.spectral_edges(3) == validate._edges(3)
