"""The Gram-Schmidt kernel's build cache, on a copy of the package.

Importing ``expbench.linalg`` compiles the kernel once into
``__pycache__/mgs-<hash>.so`` beside the module and loads that file on
every later import.  Each check runs imports in child processes on a fresh
copy of ``src/expbench``, so it starts from a cold cache.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "expbench"

IMPORT = "import expbench.linalg"


@pytest.fixture
def package(tmp_path):
    shutil.copytree(SRC, tmp_path / "expbench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def start_import(root, path=None, tmpdir=None):
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    if path is not None:
        env["PATH"] = path
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return subprocess.Popen([sys.executable, "-c", IMPORT], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish(proc):
    _out, err = proc.communicate(timeout=120)
    return proc.returncode, err


def run_import(root, path=None, tmpdir=None):
    return finish(start_import(root, path, tmpdir))


def cache_files(root):
    cache = root / "expbench" / "__pycache__"
    return sorted(cache.iterdir()) if cache.is_dir() else []


def test_cold_import_builds_the_kernel_into_pycache(package):
    assert run_import(package) == (0, "")
    [built] = cache_files(package)
    assert built.name.startswith("mgs-") and built.suffix == ".so"


def test_warm_import_loads_the_cached_kernel_without_a_compiler(package):
    assert run_import(package) == (0, "")
    [built] = cache_files(package)
    stamp = built.stat()
    assert run_import(package, path="") == (0, "")
    assert cache_files(package) == [built]
    assert (built.stat().st_ino, built.stat().st_mtime_ns) == (stamp.st_ino, stamp.st_mtime_ns)


def test_two_cold_imports_at_once_both_load_a_whole_kernel(package):
    procs = [start_import(package) for _ in range(2)]
    assert [finish(proc) for proc in procs] == [(0, ""), (0, "")]
    [built] = cache_files(package)
    assert built.suffix == ".so"


def test_unwritable_cache_builds_a_private_kernel_and_removes_it(package):
    # a file where the cache directory would go cannot be written into, as
    # a read-only install (root writes through permission bits)
    (package / "expbench" / "__pycache__").write_text("")
    tmpdir = package / "tmp"
    tmpdir.mkdir()
    assert run_import(package, tmpdir=tmpdir) == (0, "")
    assert not list((package / "expbench").rglob("mgs-*"))
    assert list(tmpdir.iterdir()) == []


def test_cold_import_without_a_compiler_names_the_compiler(package):
    cc = sysconfig.get_config_var("CC")
    if os.path.isabs(shlex.split(cc)[0]):
        pytest.skip(f"the compiler {cc!r} is named by a path that clearing PATH does not hide")
    code, err = run_import(package, path="")
    assert code != 0
    assert "ImportError" in err and repr(cc) in err
    assert cache_files(package) == []
