"""Toolchain detection and the on-disk native artifact cache.

Every generated C module goes through :func:`ensure_module`: the source
is hashed, written to ``<name>.c`` with :func:`atomic_write_text`,
compiled to a dot-prefixed temp ``.so`` and ``os.replace``d into place
under an exclusive ``flock`` on ``<name>.lock`` — so two sweep workers
requesting the same module produce exactly one compile and neither ever
``dlopen``s a partial file.  Artifact names carry the codegen schema
version (``route-v1-<digest>.so``), which is what lets ``repro cache
gc`` prune stale generations by filename alone.

Everything here degrades to ``None`` rather than raising: no compiler,
unwritable cache directory, failed compile, or unloadable ``.so`` all
mean "no native module", and the callers fall back to the bit-identical
compiled Python cores.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import subprocess
from pathlib import Path

from repro.utils.atomicio import TEMP_PREFIX, atomic_write_text, fsync_dir, is_temp_file

try:  # POSIX build lock; absent on Windows, where builds race benignly
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "NATIVE_CC_ENV", "NATIVE_DIR_ENV", "NATIVE_SCHEMA_VERSION",
    "classify_artifact", "clear_native_caches", "ensure_module",
    "find_compiler", "native_cache_dir", "toolchain_available",
]

#: Bumped whenever generated C or its ABI changes; baked into artifact
#: filenames so ``repro cache gc`` can prune stale generations.
NATIVE_SCHEMA_VERSION = 2

NATIVE_DIR_ENV = "REPRO_NATIVE_DIR"
NATIVE_CC_ENV = "REPRO_NATIVE_CC"

#: ``REPRO_NATIVE_CC`` values that mean "pretend there is no toolchain".
CC_DISABLED_VALUES = frozenset({"none", "off", "disabled", "0"})

_CC_CANDIDATES = ("cc", "gcc", "clang")

#: Flags deliberately exclude ``-ffast-math``/``-Ofast``: the generated
#: code only adds doubles Python computed, and licensing the compiler to
#: reassociate them would break bit-identity with the Python cores.
_CFLAGS = ("-O2", "-fPIC", "-shared")

# Resolution caches.  ``_MODULES`` maps artifact name -> loaded CDLL (or
# None for a remembered failure) so each process compiles/loads at most
# once; ``_GENERATION`` invalidates handles cached on long-lived objects
# (RouteCore, CompiledSchedule) when clear_native_caches() runs.
_cc_resolved = False
_cc_command: tuple[str, ...] | None = None
_MODULES: dict[str, "ctypes.CDLL | None"] = {}
_GENERATION = 0


def generation() -> int:
    """Cache generation counter; bumped by :func:`clear_native_caches`.

    Objects that cache a native handle store the generation alongside it
    and rebuild when it moves, so monkeypatched toolchains / cache dirs
    in tests take effect without hunting down every holder.
    """
    return _GENERATION


def clear_native_caches() -> None:
    """Forget resolved toolchain, loaded modules, and object-level handles."""
    global _cc_resolved, _cc_command, _GENERATION
    _cc_resolved = False
    _cc_command = None
    _MODULES.clear()
    _GENERATION += 1


def find_compiler() -> tuple[str, ...] | None:
    """Resolve the C compiler command, or ``None`` when unavailable.

    ``$REPRO_NATIVE_CC`` wins (shlex-split, so ``"gcc -m64"`` works; the
    values in :data:`CC_DISABLED_VALUES` force the no-toolchain path);
    otherwise the first of ``cc``/``gcc``/``clang`` on ``$PATH``.
    """
    global _cc_resolved, _cc_command
    if _cc_resolved:
        return _cc_command
    _cc_resolved = True
    _cc_command = None
    env = os.environ.get(NATIVE_CC_ENV, "").strip()
    if env:
        if env.lower() in CC_DISABLED_VALUES:
            return None
        parts = tuple(shlex.split(env))
        if parts and shutil.which(parts[0]):
            _cc_command = parts
        return _cc_command
    for candidate in _CC_CANDIDATES:
        path = shutil.which(candidate)
        if path:
            _cc_command = (path,)
            break
    return _cc_command


def toolchain_available() -> bool:
    """Whether a usable C compiler was found (after env overrides)."""
    return find_compiler() is not None


def native_cache_dir() -> Path:
    """Directory holding generated sources and built shared objects.

    ``$REPRO_NATIVE_DIR`` wins; otherwise a ``native/`` subdirectory of
    the result-store root (``$REPRO_CACHE_DIR``, default
    ``.repro-cache``) so ``repro cache stats``/``gc`` find it next to
    the entries they already manage.
    """
    env = os.environ.get(NATIVE_DIR_ENV, "").strip()
    if env:
        return Path(env)
    from repro.eval.cache import CACHE_DIR_ENV  # light import, no cycle
    root = os.environ.get(CACHE_DIR_ENV, "").strip() or ".repro-cache"
    return Path(root) / "native"


def artifact_name(kind: str, digest: str) -> str:
    """Canonical artifact stem: ``<kind>-v<schema>-<digest16>``."""
    return f"{kind}-v{NATIVE_SCHEMA_VERSION}-{digest[:16]}"


def classify_artifact(path: Path) -> str:
    """Classify a file in the native cache dir for stats/gc.

    Returns one of ``"module"`` (current-schema ``.so``), ``"source"``
    (current-schema ``.c``), ``"stale"`` (artifact of another schema
    version), ``"debris"`` (atomic-write temp files, build locks), or
    ``"other"`` (unrecognized; stats counts it, gc leaves it alone).
    """
    name = path.name
    if is_temp_file(name) or name.endswith(".lock"):
        return "debris"
    stem, dot, ext = name.rpartition(".")
    if dot and ext in ("c", "so"):
        kind, sep, rest = stem.partition("-v")
        if sep and kind in ("route", "sim"):
            version = rest.partition("-")[0]
            if version.isdigit():
                if int(version) == NATIVE_SCHEMA_VERSION:
                    return "module" if ext == "so" else "source"
                return "stale"
    return "other"


def _compile(cc: tuple[str, ...], directory: Path, name: str,
             source_path: Path, so_path: Path) -> bool:
    tmp_so = directory / f"{TEMP_PREFIX}{name}-{os.getpid()}.so"
    cmd = [*cc, *_CFLAGS, "-o", str(tmp_so), str(source_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        tmp_so.unlink(missing_ok=True)
        return False
    if proc.returncode != 0 or not tmp_so.exists():
        tmp_so.unlink(missing_ok=True)
        return False
    os.replace(tmp_so, so_path)
    fsync_dir(directory)
    return True


def _build_locked(cc: tuple[str, ...], directory: Path, name: str,
                  source: str, so_path: Path) -> bool:
    """Build ``so_path`` under an exclusive lock; True if it exists after."""
    lock_path = directory / f"{name}.lock"
    try:
        lock_fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o666)
    except OSError:
        return False
    try:
        if fcntl is not None:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
        # A concurrent worker may have finished the build while this one
        # waited on the lock; os.replace made that visible atomically.
        if so_path.exists():
            return True
        source_path = directory / f"{name}.c"
        atomic_write_text(source_path, source)
        return _compile(cc, directory, name, source_path, so_path)
    except OSError:
        return False
    finally:
        os.close(lock_fd)  # releases the flock


def ensure_module(kind: str, digest: str, source: str) -> "ctypes.CDLL | None":
    """Return the loaded shared object for ``source``, building if needed.

    ``None`` means the native path is unavailable (no toolchain, cache
    dir unwritable, compile or load failure) — remembered per process so
    the fallback costs one lookup, not one failed compile per call.
    """
    name = artifact_name(kind, digest)
    if name in _MODULES:
        return _MODULES[name]
    lib = _ensure_module_uncached(name, source)
    _MODULES[name] = lib
    return lib


def _ensure_module_uncached(name: str, source: str) -> "ctypes.CDLL | None":
    cc = find_compiler()
    if cc is None:
        return None
    directory = native_cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    so_path = directory / f"{name}.so"
    if not so_path.exists():
        if not _build_locked(cc, directory, name, source, so_path):
            return None
    try:
        return ctypes.CDLL(str(so_path))
    except OSError:
        # Corrupt or truncated artifact from a foreign writer: rebuild
        # once through the same locked path, then give up.
        try:
            so_path.unlink(missing_ok=True)
        except OSError:
            return None
        if not _build_locked(cc, directory, name, source, so_path):
            return None
        try:
            return ctypes.CDLL(str(so_path))
        except OSError:
            return None


def scan_cache(directory: "Path | None" = None) -> dict[str, list[Path]]:
    """Inventory the native cache dir, grouped by :func:`classify_artifact`."""
    directory = native_cache_dir() if directory is None else directory
    groups: dict[str, list[Path]] = {
        "module": [], "source": [], "stale": [], "debris": [], "other": [],
    }
    try:
        entries = sorted(directory.iterdir())
    except OSError:
        return groups
    for path in entries:
        if not path.is_file():
            continue
        groups[classify_artifact(path)].append(path)
    return groups
