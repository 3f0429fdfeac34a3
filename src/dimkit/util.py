"""Shared helpers: surface normalization, number formatting, seeded RNG
derivation, byte-span arithmetic, and the one reader and one writer for
line-oriented files."""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import unicodedata
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import InputError

_ASCII_UPPER = str.maketrans({chr(c): chr(c + 32) for c in range(ord("A"), ord("Z") + 1)})


def normalize_surface(text: str) -> str:
    """Canonical form used for every surface lookup and index build.

    Compose to NFC (U+212A KELVIN SIGN becomes "K"), trim, collapse
    internal whitespace to single spaces, fold ASCII letters to
    lowercase, and compose again ("W" + U+030A folds to "w" + U+030A,
    which composes to U+1E98).  The result is a fixed point, applied
    identically when building indexes and when querying them.
    """
    text = unicodedata.normalize("NFC", text)
    text = " ".join(text.split())
    return unicodedata.normalize("NFC", text.translate(_ASCII_UPPER))


def _ascii_alnum(ch: str) -> bool:
    return ch.isascii() and ch.isalnum()


def on_word_boundary(text: str, start: int, end: int) -> bool:
    """False when text[start:end] is glued to an ASCII alphanumeric on an
    edge whose own character is an ASCII alphanumeric; otherwise
    one-letter symbols ("t", "m") would match inside nearly every word."""
    if start > 0 and _ascii_alnum(text[start]) and _ascii_alnum(text[start - 1]):
        return False
    return not (end < len(text) and _ascii_alnum(text[end - 1]) and _ascii_alnum(text[end]))


def format_number(x: float) -> str:
    """Shortest decimal form that round-trips to x; integers drop the
    trailing '.0' (avoids "150000.0克" artifacts)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot format non-finite value {x!r}")
    if float(x).is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def format_plain(x: float) -> str:
    """Like format_number but never scientific notation; used where the
    output must re-tokenize as digits and operators only."""
    s = format_number(x)
    if "e" in s or "E" in s:
        from decimal import Decimal

        s = format(Decimal(repr(float(x))), "f")
        if "." in s:
            s = s.rstrip("0").rstrip(".")
    return s


def derive_seed(seed: int, *labels: object) -> int:
    """Stable sub-seed from a master seed and a label path.

    All randomness in batch commands flows from one --seed through this,
    so independent sub-tasks never share or race an RNG stream.
    """
    key = "|".join([str(seed), *[str(x) for x in labels]])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, *labels: object) -> random.Random:
    return random.Random(derive_seed(seed, *labels))


def byte_length(text: str) -> int:
    return len(text.encode("utf-8"))


def byte_slice(text: str, start: int, end: int) -> str:
    """Slice a str by UTF-8 byte offsets (spans must lie on character
    boundaries, which every span produced by this package does)."""
    return text.encode("utf-8")[start:end].decode("utf-8")


def byte_replace(text: str, start: int, end: int, replacement: str) -> str:
    raw = text.encode("utf-8")
    return (raw[:start] + replacement.encode("utf-8") + raw[end:]).decode("utf-8")


def char_to_byte_offsets(text: str) -> list[int]:
    """Prefix table mapping character index -> byte offset; one extra
    entry at the end equal to the total byte length."""
    offsets = [0]
    total = 0
    for ch in text:
        total += len(ch.encode("utf-8"))
        offsets.append(total)
    return offsets


# ---------------------------------------------------------------------------
# Line-oriented files


def read_lines(path: str | Path) -> list[str]:
    """Lines of a UTF-8 text file, without line endings.

    Bytes that are not UTF-8 raise InputError naming the file and the
    byte offset."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None


class _Fields(dict):
    """A JSONL object that remembers the field read last, so errors can name it."""

    last = None

    def __getitem__(self, key):
        self.last = key
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.last = key
        return super().get(key, default)


def read_records(path: str | Path, from_dict: Callable[[dict], object]) -> list:
    """One record per non-blank JSONL line, decoded by from_dict.

    Malformed JSON (checked over the whole file first), a line that is
    not a JSON object, and a missing or malformed field raise InputError
    naming the file, the line and the field.
    """
    rows = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            rows.append((f"{path}: line {lineno}", json.loads(line)))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {lineno}: malformed JSON ({exc})") from None
    out = []
    for where, fields in rows:
        if not isinstance(fields, dict):
            raise InputError(f"{where}: expected a JSON object")
        fields = _Fields(fields)
        try:
            out.append(from_dict(fields))
        except KeyError as exc:
            raise InputError(f"{where}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: malformed field {fields.last!r} ({exc})") from None
    return out


def jsonl_lines(records: Iterable) -> Iterator[str]:
    """One JSON line per record, from its to_dict codec."""
    return (json.dumps(r.to_dict(), ensure_ascii=False) for r in records)


def write_lines(*outputs: tuple[str | Path | None, Iterable[str]]) -> None:
    """Write each output's lines, newline-terminated; a None path is stdout.

    Every text is built, and a directory target rejected, before any
    write.  New targets are staged in temporaries beside them, so a
    failure (say, a missing directory) removes those and creates no
    file.  Existing targets (files, symlinks, devices, FIFOs) are then
    written in place, keeping mode, owner and links; os.replace moves
    the temporaries onto the new targets; stdout comes last.
    """
    import errno
    import tempfile

    texts = [(path, "".join(line + "\n" for line in lines)) for path, lines in outputs]
    files = [(Path(p), t.encode("utf-8"), os.path.lexists(p)) for p, t in texts if p]
    for target, _, _ in files:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    umask = os.umask(0)
    os.umask(umask)
    staged: list[tuple[str, Path]] = []
    try:
        for target, data, exists in files:
            if exists:
                continue
            try:
                fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, str(target)) from None
            staged.append((tmp, target))
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(data)
        for target, data, exists in files:
            if exists:
                target.write_bytes(data)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            Path(tmp).unlink(missing_ok=True)
        raise
    for path, text in texts:
        if not path:
            sys.stdout.write(text)
