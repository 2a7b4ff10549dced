"""Machine context recorded with every benchmark run.

Everything here is *read*: the BLAS library and its thread count are
queried from the libraries the program has already loaded, and no
environment variable or library setting is changed.  The same module
reads the per-process CPU and memory counters the harness reports,
straight from ``/proc``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
from pathlib import Path

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_BLAS_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _loaded_libraries(marker: str) -> list[str]:
    """Paths of shared objects mapped into this process matching marker."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            parts = line.split()
            if len(parts) >= 6 and marker in parts[-1].lower():
                paths.add(parts[-1])
    return sorted(paths)


def _call_first(library: ctypes.CDLL, names, restype):
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            function.argtypes = []
            function.restype = restype
            return function()
    return None


def blas_context() -> list[dict]:
    """Each loaded OpenBLAS: path, build config and current thread count."""
    out = []
    for path in _loaded_libraries("openblas"):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call_first(library, _BLAS_CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "config": None if config is None else config.decode().strip(),
                "threads": _call_first(library, _BLAS_THREAD_SYMBOLS, ctypes.c_int),
            }
        )
    return out


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            parts = line.split()
            if len(parts) < 3:
                continue
            mount = parts[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def machine_context(root: Path, store_dir: Path) -> dict:
    """The run's machine context (see module docstring)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas": blas_context(),
        "blas_env": {name: os.environ.get(name) for name in _THREAD_ENV},
        "store_filesystem": filesystem_of(store_dir),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
    }


# -- /proc counters ------------------------------------------------------------


def _stat_fields(pid: int | str) -> list[str]:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2 :].split()


def child_pids() -> list[int]:
    """Live direct children of this process."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if _stat_fields(entry)[1] == me:
                pids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return pids


def cpu_seconds() -> tuple[float, dict[int, float]]:
    """``(self + reaped children, {live child pid: its own})`` CPU seconds.

    User plus system time.  Pool workers that were waited for (an
    ephemeral pool after ``join``) are inside the first number; live
    workers (a daemon's persistent pool) are read one by one.
    """
    fields = _stat_fields("self")
    own = sum(int(value) for value in fields[11:15]) / _CLOCK_TICKS
    children = {}
    for pid in child_pids():
        try:
            child = _stat_fields(pid)
        except OSError:
            continue
        children[pid] = (int(child[11]) + int(child[12])) / _CLOCK_TICKS
    return own, children


def cpu_delta(before, after) -> float:
    """CPU seconds spent between two :func:`cpu_seconds` snapshots."""
    own_before, children_before = before
    own_after, children_after = after
    total = own_after - own_before
    for pid, seconds in children_after.items():
        total += seconds - children_before.get(pid, 0.0)
    return total


def _status_kib(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mib(workers: int) -> float:
    """Peak resident memory of this process plus its pool workers.

    This process's ``VmHWM`` plus each live child's ``VmHWM``.  When no
    child is alive (ephemeral pools that were already reaped) the
    largest reaped child's peak, times ``workers``, stands in for the
    pool, since a pool's workers run side by side.
    """
    total = _status_kib("self", "VmHWM")
    live = 0
    for pid in child_pids():
        try:
            live += _status_kib(pid, "VmHWM")
        except OSError:
            continue
    if live:
        total += live
    else:
        total += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return total / 1024.0
