"""The package loads rational, geometry and critical on first use, not on import."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import pomdp_geometry as pg
from pomdp_geometry import geometry

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAZY_MODULES = ("rational", "geometry", "critical")


def check_exports(package):
    """Every exported name is its home module's object, looked up there and never bound in
    the package; run in a fresh interpreter and in this one."""
    homes = {name: getattr(package, name).__module__ for name in package.__all__}
    for name, home in homes.items():
        assert getattr(package, name) is getattr(sys.modules[home], name), name
    lazy = {name for name, home in homes.items() if home.rpartition(".")[2] in LAZY_MODULES}
    assert len(lazy) == 40 and not vars(package).keys() & lazy
    for name in LAZY_MODULES:
        assert getattr(package, name) is sys.modules[f"pomdp_geometry.{name}"]
    namespace = {}
    exec("from pomdp_geometry import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(package.__all__)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        package.no_such_name


def test_import_loads_only_the_solver_core():
    script = textwrap.dedent("""
        import sys
        import numpy
        core = set(sys.modules)
        import pomdp_geometry as pg
        loaded = set(sys.modules) - core
        assert not loaded & {"pomdp_geometry.rational", "pomdp_geometry.geometry",
                             "pomdp_geometry.critical", "numpy.polynomial"}, sorted(loaded)
        # a submodule is reached through the package before anything imported it
        assert pg.geometry is sys.modules["pomdp_geometry.geometry"]
        assert "pomdp_geometry.critical" not in sys.modules
        sys.path.insert(0, sys.argv[1])
        from test_lazy_exports import check_exports
        check_exports(pg)
    """)
    tests = pathlib.Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", script, str(tests)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr


def test_exports_resolve_to_their_home_modules_in_process():
    check_exports(pg)


def test_a_function_patched_in_its_home_module_is_what_the_package_returns(monkeypatch):
    # a tracer wraps functions where they are defined; the package must hand out the wrapper
    # while it is in place and the original once it is restored
    original = geometry.face_lattice

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "face_lattice", patched)
    assert pg.face_lattice is patched
    monkeypatch.undo()
    assert pg.face_lattice is original
