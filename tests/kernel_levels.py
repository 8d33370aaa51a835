"""The byte-exact tests again at other kernel levels, one subprocess per setting.

Tests marked ``byte_exact`` assert bits: the golden CSVs, the stats block
sums and the step chunks against their reference forms, and the erfc port
against scipy.  Each setting below runs every one of them in one pytest
subprocess: numpy's AVX-512 kernels off, its AVX2 kernels off as well,
OpenBLAS's Haswell (AVX2) kernels, its Nehalem (SSE2) kernels, and OpenBLAS
on one thread, as the CLI process runs it.  The subprocesses start together, on the first test that asks for
them, so the settings share the host's CPUs.  ``tests/test_kernel_levels.py``
asserts that each whole run passed; the golden and block-sum tests in
``test_cli.py`` and ``test_mc.py`` read their own tests' outcomes from the
same runs.
"""

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).parent.parent

#: setting -> (environment, the numpy CPU feature it turns off or needs)
SETTINGS = {
    "numpy-no-x86-v4": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, "AVX512_SKX"),
    "numpy-no-x86-v3": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4,X86_V3"}, "AVX2"),
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "AVX2"),
    "openblas-nehalem": ({"OPENBLAS_CORETYPE": "Nehalem"}, "SSE42"),
    "openblas-one-thread": ({"OPENBLAS_NUM_THREADS": "1"}, None),
}


def _numpy_has(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get(feature))


@dataclass(frozen=True)
class Run:
    returncode: int
    out: str
    err: str
    passed: frozenset    # node ids, as ``tests/test_x.py::Class::test[id]``

    @property
    def summary(self) -> str:
        return self.out.splitlines()[-1] if self.out else ""

    def tail(self) -> str:
        return self.out[-3000:] + self.err[-3000:]


class Runs:
    """The pytest subprocess of each setting this host can run."""

    def __init__(self):
        files = [str(f) for f in sorted((ROOT / "tests").glob("test_*.py"))
                 if "mark.byte_exact" in f.read_text()]    # collect no other module
        path = os.pathsep.join([str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # no plugin autoload: the marked tests need none, and loading the
        # installed ones costs each subprocess about 0.8 s of CPU
        base = {**os.environ, "PYTHONPATH": path, "EXPOUVOL_CONFIG": "",
                "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
        # -rp lists each passed test as "PASSED <node id>"
        self._procs = {
            name: subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-rp", "-p", "no:cacheprovider",
                 "-m", "byte_exact", *files],
                cwd=ROOT, env={**base, **env},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for name, (env, feature) in SETTINGS.items() if feature is None or _numpy_has(feature)}
        self._runs = {}

    def __contains__(self, setting: str) -> bool:
        return setting in self._procs

    def __getitem__(self, setting: str) -> Run:
        if setting not in self._runs:
            proc = self._procs[setting]
            out, err = proc.communicate(timeout=300)
            passed = frozenset(re.findall(r"^PASSED (\S+)", out, re.MULTILINE))
            self._runs[setting] = Run(proc.returncode, out, err, passed)
        return self._runs[setting]

    def close(self):
        for proc in self._procs.values():     # a no-op once every run was read
            proc.kill()
            proc.communicate()
