"""Durable files: the one crash-safety layer every on-disk format uses.

Every file this package writes that must survive a crash goes through
one of three primitives defined here, and only here:

* :func:`atomic_write_bytes` — a whole-file replace: the payload goes to
  a temporary file in the destination directory, is fsynced, then
  ``os.replace``\\ d over the target, so a crash at any instant leaves
  either the old file or the new one, never a truncated hybrid (a stray
  ``*.tmp`` at worst).
* the **checked envelope** (:func:`write_checked` / :func:`read_checked`)
  — a pickled header ``{"magic", <fields>, "crc32", "body"}`` around a
  pickled body, written with :func:`atomic_write_bytes`.  The reader
  accepts exactly the header keys it expects and the CRC32 the body was
  sealed with, so a bit flip or truncation anywhere in the file raises
  ``ValueError`` naming the path instead of loading wrong data.
* :class:`FramedLog` — an append-only log of CRC-framed payloads with
  staging and group commit (one fsync per commit).  Readers stop at the
  first torn, mis-magic'd or corrupt frame; the writer trims such a torn
  tail once before its first append and again after a failed one.

Model archives (:func:`save_model` / :func:`load_model`, format
``repro-model-v1``) are a checked envelope whose body is the pickled
estimator.  Archives from older releases (the model inline in the
header, or an unchecked ``crc32: None`` body) still load.

Security note: as with any pickle-based format, only load files you
produced or trust.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import Callable, Iterable

from repro.resilience.faults import fault_point

__all__ = [
    "FramedLog",
    "atomic_write_bytes",
    "checksum",
    "frame_payload",
    "load_model",
    "read_checked",
    "read_frames",
    "save_model",
    "write_checked",
]

_MODEL_MAGIC = "repro-model-v1"
_FRAME_HEAD = struct.Struct("<4sI")     # magic, payload length
_FRAME_TAIL = struct.Struct("<I")       # crc32 of the payload
_MAX_PAYLOAD = 1 << 31                  # sanity bound against garbage lengths


def checksum(data) -> int:
    """CRC32 of a bytes-like object (the checksum every format stores)."""
    return zlib.crc32(data)


def _write_split(handle, data, fault: str) -> None:
    """Write ``data`` in two halves with fault point ``fault`` between."""
    view = memoryview(data).cast("B")
    half = len(view) // 2
    handle.write(view[:half])
    fault_point(fault)
    handle.write(view[half:])


# ----------------------------------------------------------------------
# atomic replace
# ----------------------------------------------------------------------
def atomic_write_bytes(
    path: str | Path,
    data,
    *,
    fsync: bool = True,
    replace_fault: str = "persist.before_replace",
) -> Path:
    """Write ``data`` (any bytes-like) to ``path`` atomically.

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename — atomic on POSIX.  With
    ``fsync=True`` (default) the payload is flushed to disk before the
    rename and the directory entry after it, so the write survives power
    loss, not just process death.  A crash mid-write leaves at most a
    ``<name>.*.tmp`` file, which every reader in this package ignores.
    ``replace_fault`` names the fault point between the durable tmp file
    and the rename (segment data files use ``store.segment.finalize``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            _write_split(handle, data, "persist.mid_write")
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        fault_point(replace_fault)
        os.replace(tmp, path)
        fault_point("persist.after_replace")
        if fsync:
            _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (rename durability); best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. some network filesystems
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# checked envelope
# ----------------------------------------------------------------------
def write_checked(
    path: str | Path,
    magic: str,
    obj,
    *,
    fields: dict | None = None,
    body_key: str = "body",
    fsync: bool = True,
) -> Path:
    """Atomically write ``obj`` as a CRC32-checked envelope.

    The file is a pickled header ``{"magic": magic, **fields, "crc32":
    crc, body_key: body}`` where ``body`` is ``obj`` pickled and ``crc``
    its CRC32.  ``fields`` are small descriptive header entries.
    """
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = {"magic": magic, **(fields or {}), "crc32": checksum(body),
              body_key: body}
    data = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    return atomic_write_bytes(path, data, fsync=fsync)


def read_checked(
    path: str | Path,
    magic: str,
    what: str,
    *,
    fields: Iterable[str] = (),
    body_key: str = "body",
    legacy: Callable[[dict], object] | None = None,
) -> tuple[dict, object]:
    """Read an envelope written by :func:`write_checked`; ``(header, obj)``.

    Raises ``FileNotFoundError`` when ``path`` is absent and
    ``ValueError`` naming ``path`` when it is not a ``repro {what}``:
    unparseable, a wrong magic, a header key set other than exactly
    ``magic``/``crc32``/``body_key``/``fields``, a CRC mismatch, or an
    undecodable body.  ``legacy(header)`` may recognize an older
    unchecked layout and return its object (``None`` means "not legacy").
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            f"no {what} at {path} (resolved: {path.resolve()})"
        )
    try:
        header = pickle.loads(path.read_bytes())
        old = legacy(header) if legacy and isinstance(header, dict) else None
    except Exception as exc:            # garbled pickle or legacy payload
        raise ValueError(f"{path} is not a repro {what}: {exc}") from exc
    if old is not None:
        return header, old
    if (not isinstance(header, dict) or header.get("magic") != magic
            or set(header) != {"magic", "crc32", body_key, *fields}):
        raise ValueError(f"{path} is not a repro {what}")
    body = header[body_key]
    if not isinstance(body, bytes) or checksum(body) != header["crc32"]:
        raise ValueError(
            f"{path} failed its CRC32 check: the {what} is corrupt"
        )
    try:
        return header, pickle.loads(body)
    except Exception as exc:
        raise ValueError(f"{path} has a corrupt {what} payload: {exc}") from exc


# ----------------------------------------------------------------------
# framed append log
# ----------------------------------------------------------------------
def frame_payload(payload, magic: bytes) -> bytes:
    """Wrap ``payload`` in one log frame.

    Layout (little-endian): ``magic`` (4 bytes), u32 payload length, the
    payload, u32 CRC32 of the payload.
    """
    if len(magic) != 4:
        raise ValueError(f"magic must be 4 bytes, got {magic!r}")
    return (_FRAME_HEAD.pack(magic, len(payload)) + payload
            + _FRAME_TAIL.pack(checksum(payload)))


def read_frames(path: str | Path, magic: bytes, decode) -> tuple[list, int]:
    """Decode every intact frame of the log at ``path``.

    Returns ``(items, valid_bytes)``: ``decode(payload)`` of each frame in
    order, and the byte offset just past the last one.  Reading stops at
    the first truncated, mis-magic'd, CRC-failing or undecodable frame —
    everything before it was durably committed, everything from it on
    never was.  An absent file reads as ``([], 0)``.  Never writes.
    """
    path = Path(path)
    if not path.is_file():
        return [], 0
    raw = memoryview(path.read_bytes())
    items: list = []
    offset = 0
    while offset + _FRAME_HEAD.size + _FRAME_TAIL.size <= len(raw):
        frame_magic, length = _FRAME_HEAD.unpack_from(raw, offset)
        body_start = offset + _FRAME_HEAD.size
        body_end = body_start + length
        if (frame_magic != magic or length > _MAX_PAYLOAD
                or body_end + _FRAME_TAIL.size > len(raw)):
            break
        payload = raw[body_start:body_end]
        (crc,) = _FRAME_TAIL.unpack_from(raw, body_end)
        if checksum(payload) != crc:
            break
        try:
            items.append(decode(payload))
        except Exception:               # undecodable despite CRC: torn
            break
        offset = body_end + _FRAME_TAIL.size
    return items, offset


class FramedLog:
    """Append-only log of CRC-framed payloads with staging and group commit.

    Parameters
    ----------
    path:
        The log file (created, with its directory, on first commit).
    magic:
        The 4-byte frame magic of this log's format.
    encode:
        ``encode(staged_items)`` → iterable of payloads, one frame each.
    decode:
        ``decode(payload)`` → item, for :meth:`read`.
    fault:
        Fault point fired between the two halves of every frame written.
    """

    def __init__(self, path: str | Path, *, magic: bytes, encode, decode,
                 fault: str):
        self.path = Path(path)
        self.magic = magic
        self.fault = fault
        self._encode = encode
        self._decode = decode
        self._staged: list = []
        self._trimmed = False
        # Valid byte count found by the last read; consulted only by the
        # trim, which runs before any write of this object lands.
        self._valid: int | None = None

    @property
    def n_staged(self) -> int:
        """Items staged but not yet committed."""
        return len(self._staged)

    def stage(self, item) -> None:
        """Buffer an item in memory; durable only after :meth:`commit`."""
        self._staged.append(item)

    def read(self) -> tuple[list, int]:
        """Every intact committed item and the valid byte count."""
        items, self._valid = read_frames(self.path, self.magic, self._decode)
        return items, self._valid

    def _trim_torn_tail(self) -> None:
        """Truncate any torn frame a crash left, once, before first append.

        Reuses the valid byte count of a :meth:`read` made since the last
        write (recovery reads the log just before the first commit), so
        the log is read whole only when nothing read it yet.
        """
        if self._trimmed:
            return
        self._trimmed = True
        valid = self._valid if self._valid is not None else self.read()[1]
        if self.path.is_file() and valid < self.path.stat().st_size:
            with self.path.open("rb+") as handle:
                handle.truncate(valid)

    def commit(self, *, fsync: bool = True) -> list:
        """Group-commit every staged item: write all frames, fsync once.

        Returns the items that became durable.  A crash mid-commit
        leaves a torn tail that readers ignore, so earlier commits are
        never damaged.  After a failed attempt the batch stays staged
        (commit is retryable) and the tear is trimmed before the next
        append lands behind it.
        """
        if not self._staged:
            return []
        self._trim_torn_tail()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with self.path.open("ab") as handle:
                for payload in self._encode(self._staged):
                    _write_split(handle, frame_payload(payload, self.magic),
                                 self.fault)
                if fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
        except BaseException:
            self._trimmed = False
            self._valid = None          # the failed write tore a new tail
            raise
        committed, self._staged = self._staged, []
        return committed

    def truncate(self) -> None:
        """Durably drop every committed frame."""
        if self.path.is_file():
            with self.path.open("rb+") as handle:
                handle.truncate(0)
                handle.flush()
                os.fsync(handle.fileno())
        self._trimmed = True


# ----------------------------------------------------------------------
# model archives
# ----------------------------------------------------------------------
def save_model(model, path: str | Path, *, fsync: bool = True) -> Path:
    """Serialize a (fitted or unfitted) estimator to ``path`` atomically.

    The archive is a checked envelope: a CRC32 over the pickled model is
    stored in the header and verified by :func:`load_model`.  A crash
    mid-save leaves the previous file (if any) intact.
    """
    import repro

    fields = {"repro_version": repro.__version__,
              "model_class": type(model).__name__}
    return write_checked(path, _MODEL_MAGIC, model, fields=fields,
                         body_key="model_pickle", fsync=fsync)


def _legacy_model(header: dict):
    """The model of a pre-checksum archive, or ``None`` for current ones."""
    if header.get("magic") != _MODEL_MAGIC:
        return None
    stamp = {"magic", "repro_version", "model_class"}
    if set(header) == stamp | {"model"}:            # model stored inline
        return header["model"]
    if (set(header) == stamp | {"crc32", "model_pickle"}
            and header["crc32"] is None):           # saved unchecked
        return pickle.loads(header["model_pickle"])
    return None


def load_model(path: str | Path):
    """Load an estimator saved by :func:`save_model`.

    Raises ``FileNotFoundError`` (with the resolved path) for missing
    files and ``ValueError`` naming the path for files that are not repro
    model archives or fail their CRC32 check; warns (but proceeds) when
    the saving library version differs.
    """
    import repro

    header, model = read_checked(
        path, _MODEL_MAGIC, "model file",
        fields=("repro_version", "model_class"), body_key="model_pickle",
        legacy=_legacy_model,
    )
    if type(model).__name__ != header["model_class"]:
        raise ValueError(
            f"{path} holds a {type(model).__name__}, its header says "
            f"{header['model_class']}: the model file is corrupt"
        )
    saved = header["repro_version"]
    if saved != repro.__version__:
        warnings.warn(
            f"model was saved with repro {saved}, loading under "
            f"{repro.__version__}",
            stacklevel=2,
        )
    return model
