"""On-disk character cache.

One character per file.  An entry is a seal line, then the character file
exactly as :meth:`GradedCharacter.to_jsonl` writes it in the key's kind,
which is what a cold ``char`` prints.  The seal holds the entry's own file
name, the term count and the SHA-256 of all that follows the seal, in one
exact line, e.g.
``{"entry":"v3_demazure_A2_l1_w1_1.jsonl","terms":8,"sha256":"…"}``.
``load`` matches the seal against that line's one pattern and checks the
name and the digest, then the header line against the key's system and
kind, then parses the file once and compares the count; any other entry,
one copied to another key's file name or with a respaced seal included, is
a miss.  Keys are injective over distinct mathematical objects, and file
names carry a format version (3 since the seal); bumping it orphans every
prior entry.  ``stats`` counts only current-version ``demazure`` and
``weyl`` entries; ``clear`` removes entry files of every version and kind,
and no other file.  Writes are atomic (write to a temp file in the same
directory, then rename), so concurrent readers never observe a torn file
and concurrent writers of the same key simply race to identical content.
Neither direction loads ``json``.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections import namedtuple

from .charalg import GradedCharacter

try:  # the builtin module, as in ``random``: hashlib loads OpenSSL, ~4 MB of RSS
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

__all__ = ["FORMAT_VERSION", "CacheKey", "CharacterCache", "resolve_cache_dir"]

FORMAT_VERSION = 3

ENV_VAR = "DEMKIT_CACHE"
_SLICE = 1 << 16  # characters encoded, hashed and written at a time
_ENTRY_NAME = re.compile(r"v\d+_[a-z-]+_.+\.jsonl")  # v<version>_<kind>_<key>.jsonl
_SEAL = '{"entry":"%s","terms":%d,"sha256":"%s"}\n'
_SEAL_LINE = re.compile(rb'\{"entry":"([^"\\]*)","terms":(0|[1-9][0-9]*),"sha256":"([0-9a-f]{64})"\}\n')


def _encoded(text):
    """The UTF-8 bytes of ``text`` in slices of ``_SLICE`` characters, so
    no copy of the whole text is made; UTF-8 composes over concatenation,
    and so does SHA-256."""
    for start in range(0, len(text), _SLICE):
        yield text[start:start + _SLICE].encode("utf-8")


def resolve_cache_dir(explicit=None):
    """Cache directory: explicit flag, else $DEMKIT_CACHE, else a per-user
    default under the XDG cache home."""
    if explicit:
        return os.path.abspath(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return os.path.abspath(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "demkit")


class CacheKey(namedtuple("CacheKey", "system kind level weight")):
    """One cached character: ``kind`` is ``demazure`` or ``weyl``."""

    __slots__ = ()

    def filename(self):
        coords = "_".join(str(c) for c in self.weight)
        return f"v{FORMAT_VERSION}_{self.kind}_{self.system}_l{self.level}_w{coords}.jsonl"

    @property
    def expected_header_kind(self):
        return "plain" if self.kind == "weyl" else "graded"


class CharacterCache:
    def __init__(self, directory):
        self.directory = directory

    def _path(self, key):
        return os.path.join(self.directory, key.filename())

    def load(self, key):
        """``(char, text)`` for the cached character, where ``text`` is its
        character file as ``store`` returns it, or None on a miss.  Stale,
        misfiled, corrupt or malformed entries count as misses; any other
        failure to read raises, so the request fails before it builds
        anything."""
        try:
            with open(self._path(key), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:  # no entry, or no cache directory yet
            return None
        seal = _SEAL_LINE.match(data)
        if not seal:
            return None
        body = memoryview(data)[seal.end():]  # the character file
        if seal[1] != key.filename().encode() or seal[3] != sha256(body).hexdigest().encode():
            return None
        try:
            text = str(body, "utf-8")
            if not text.startswith(GradedCharacter._header(key.system, key.expected_header_kind)):
                return None  # printed as read, so only the key's header as to_jsonl spells it
            char = GradedCharacter.from_jsonl(text)
        except ValueError:
            return None
        return (char, text) if len(char.terms) == int(seal[2]) else None

    def store(self, key, char):
        """Write ``char`` under ``key``; returns its ``to_jsonl`` text in
        the key's kind, the entry after its seal, so a caller that prints
        it serializes once."""
        os.makedirs(self.directory, exist_ok=True)
        text = char.to_jsonl(kind=key.expected_header_kind)
        digest = sha256()
        for data in _encoded(text):
            digest.update(data)
        seal = _SEAL % (key.filename(), len(char.terms), digest.hexdigest())
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(seal.encode("utf-8"))
                fh.writelines(_encoded(text))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return text

    def _names(self):
        """Every entry file, of any version and kind, and no other file.  A
        missing directory is an empty cache; any other failure propagates."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(filter(_ENTRY_NAME.fullmatch, names))

    def stats(self):
        """The count of entries of the current format version and a known
        kind, the only ones ``load`` can read."""
        prefixes = tuple(f"v{FORMAT_VERSION}_{kind}_" for kind in ("demazure", "weyl"))
        return {"entries": sum(n.startswith(prefixes) for n in self._names())}

    def clear(self):
        """Remove every entry, stale versions and kinds included.  An entry
        already gone is skipped; any other failure to remove one raises."""
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except FileNotFoundError:
                pass
