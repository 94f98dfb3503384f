"""What each kind of process imports.

``repro``, ``repro.core``, ``repro.telemetry``, ``repro.liquid`` and
``repro.gateway`` resolve their exports on first use, so a process loads
only the layers it runs: a gateway worker the kernel and the board, the
CLI's parser no simulator.  Each import check runs in a fresh interpreter
and counts only what the import itself added to ``sys.modules``.
"""

import json
import os
import pathlib
import subprocess
import sys
from importlib import import_module
from inspect import isclass, isfunction

import pytest

import repro

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])

LAZY_PACKAGES = ("repro", "repro.core", "repro.telemetry", "repro.liquid",
                 "repro.gateway")

#: What the threaded runtime and the HTTP exposition pull in.
HEAVY_STDLIB = ("http.server", "email", "ssl", "logging")


def loaded_by(code):
    """Modules a fresh interpreter holds after ``code`` and did not hold
    before it."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nimport json\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=120)
    return set(json.loads(done.stdout.splitlines()[-1]))


def under(modules, roots):
    """The modules that are one of ``roots`` or inside one."""
    return sorted(name for name in modules
                  for root in roots
                  if name == root or name.startswith(root + "."))


def test_import_repro_loads_only_the_root():
    assert sorted(name for name in loaded_by("import repro")
                  if name.startswith("repro")) == ["repro", "repro._lazy"]


def test_gateway_worker_loads_the_kernel_and_the_board_only():
    loaded = loaded_by("import repro.gateway.worker")
    assert "repro.gateway.snapshot" in loaded
    assert under(loaded, (
        "repro.runtime", "repro.telemetry", "repro.liquid", "repro.sim",
        "repro.faults", "repro.gateway.server", "repro.gateway.loadgen",
        "concurrent.futures") + HEAVY_STDLIB) == []
    # One Bouncer runs there: none of the other policies, nor the SLO
    # advisor and the exact statistics it reads.
    assert under(loaded, ("repro.core.advisor", "repro.core.related",
                          "repro.core.baselines", "repro._stats")) == []
    assert len(under(loaded, ("repro",))) == 15      # 27 with core eager


def test_referee_imports_skip_the_runtime_and_the_exposition():
    loaded = loaded_by(
        "import repro.core, repro.sim\n"
        "from repro.liquid import run_cluster_simulation\n"
        "from repro.gateway import GatewayServer\n"
        "from repro.telemetry import Telemetry, MetricsRegistry")
    assert under(loaded, ("repro.runtime", "repro.faults",
                          "repro.telemetry.http") + HEAVY_STDLIB) == []


def test_cli_help_loads_no_simulator():
    loaded = loaded_by(
        "import contextlib, io, runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit:\n"
        "        pass")
    assert "repro.cli" in loaded
    assert under(loaded, ("repro.sim", "repro.liquid", "repro.bench",
                          "repro.telemetry")) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_each_name_is_its_defining_modules_object(self, package):
        pkg = import_module(package)
        for name in pkg.__all__:
            home = pkg._EXPORTS.home[name]
            value = getattr(pkg, name)
            assert value is getattr(import_module(home), name)
            if isclass(value) or isfunction(value):
                assert value.__module__ == home, name

    def test_dir_covers_all(self, package):
        pkg = import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(import_module(package).__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error_naming_it(self, package):
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(import_module(package), "no_such_export")
