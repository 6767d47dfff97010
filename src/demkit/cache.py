"""On-disk character cache.

One character per file.  An entry is a seal line, then the character file
exactly as :meth:`GradedCharacter.to_jsonl` writes it in the key's kind,
which is what a cold ``char`` prints.  The seal holds the entry's own file
name, the term count and the SHA-256 of all that follows the seal, e.g.
``{"entry":"v3_demazure_A2_l1_w1_1.jsonl","terms":8,"sha256":"…"}``.
``load`` checks the name, the count's type (``8.0`` is no count) and the
digest, then the header line against the key's system and kind, then
parses the file once and compares the count; any other entry, one copied
to another key's file name included, is a miss.  Keys are injective over
distinct mathematical objects, and file names carry a format version (3
since the seal); bumping it orphans every prior entry.  ``stats`` counts
only current-version ``demazure`` and ``weyl`` entries; ``clear`` removes
every entry file.  Writes are atomic (write to a temp file in the same
directory, then rename), so concurrent readers never observe a torn file
and concurrent writers of the same key simply race to identical content.
"""

from __future__ import annotations

import json
import os
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
        start = data.find(b"\n") + 1  # where the character file begins
        try:
            seal = json.loads(data[:start])
            if (
                type(seal) is not dict
                or seal.get("entry") != key.filename()
                or type(seal.get("terms")) is not int  # not 2.0, not true
                or seal.get("sha256") != sha256(memoryview(data)[start:]).hexdigest()
            ):
                return None
            text = str(memoryview(data)[start:], "utf-8")
            if not text.startswith(GradedCharacter._header(key.system, key.expected_header_kind)):
                return None  # printed as read, so only the key's header as to_jsonl spells it
            char = GradedCharacter.from_jsonl(text)
        except ValueError:
            return None
        return (char, text) if len(char.terms) == seal["terms"] else None

    def store(self, key, char):
        """Write ``char`` under ``key``; returns its ``to_jsonl`` text in
        the key's kind, the entry after its seal, so a caller that prints
        it serializes once."""
        os.makedirs(self.directory, exist_ok=True)
        text = char.to_jsonl(kind=key.expected_header_kind)
        data = text.encode("utf-8")
        seal = {"entry": key.filename(), "terms": len(char.terms), "sha256": sha256(data).hexdigest()}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(seal, separators=(",", ":")).encode("utf-8") + b"\n")
                fh.write(data)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return text

    def _names(self):
        """Every entry file, of any format version.  A missing directory
        is an empty cache; any other failure to list it propagates."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(n for n in names if n.endswith(".jsonl"))

    def stats(self):
        """The count of entries of the current format version and a known
        kind, the only ones ``load`` can read."""
        prefixes = tuple(f"v{FORMAT_VERSION}_{kind}_" for kind in ("demazure", "weyl"))
        return {"entries": sum(n.startswith(prefixes) for n in self._names())}

    def clear(self):
        """Remove every entry, stale versions and kinds included."""
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass
