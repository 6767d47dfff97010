"""On-disk character cache.

One character per file.  An entry is the :meth:`GradedCharacter.to_jsonl`
text of the character, except that its header line also carries the
body's term count and the SHA-256 of the body (every line after the
header), e.g. ``{"system":"A2","kind":"graded","terms":7,"sha256":"…"}``.
``load`` checks system, kind, count (an int: ``7.0`` is no count) and
digest before it parses the body, so an edited or truncated body is a
miss, and so is any entry ``from_jsonl`` rejects.  Keys are injective
over distinct mathematical objects, and file names carry a format version
(2 since entries carry the digest); bumping the version orphans every
prior entry.  ``stats`` counts only current-version ``demazure`` and
``weyl`` entries; ``clear`` removes every entry file.  Writes are atomic
(write to a temp file in the same directory, then rename), so concurrent
readers never observe a torn file and concurrent writers of the same key
simply race to identical content.
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

FORMAT_VERSION = 2

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
        """``(char, text)`` for the cached character, where ``text`` is the
        checked entry as ``store`` returns it, or None on a miss.  Stale,
        corrupt or malformed entries count as misses; any other failure to
        read raises, so the request fails before it builds anything."""
        try:
            with open(self._path(key), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:  # no entry, or no cache directory yet
            return None
        start = data.find(b"\n") + 1  # where the body begins
        try:
            header = json.loads(data[:start])
            if (
                type(header) is not dict
                or header.get("system") != key.system
                or header.get("kind") != key.expected_header_kind
                or type(header.get("terms")) is not int  # not 2.0, not true
                or header["terms"] != data.count(b"\n", start)
                or header.get("sha256") != sha256(memoryview(data)[start:]).hexdigest()
            ):
                return None
            head = json.dumps({"system": key.system, "kind": header["kind"]}, separators=(",", ":"))
            text = head + "\n" + str(memoryview(data)[start:], "utf-8")
            return GradedCharacter.from_jsonl(text), text
        except ValueError:
            return None

    def store(self, key, char):
        """Write ``char`` under ``key``; returns its ``to_jsonl`` text in
        the key's kind, so a caller that prints it serializes once."""
        os.makedirs(self.directory, exist_ok=True)
        text = char.to_jsonl(kind=key.expected_header_kind)
        data = text.encode("utf-8")
        body = memoryview(data)[data.index(b"\n") + 1:]
        header = {
            "system": key.system,
            "kind": key.expected_header_kind,
            "terms": len(char.terms),
            "sha256": sha256(body).hexdigest(),
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
                fh.write(body)
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

    def entries(self):
        """Entries of the current format version and a known kind, the only
        ones ``load`` can read."""
        prefixes = tuple(f"v{FORMAT_VERSION}_{kind}_" for kind in ("demazure", "weyl"))
        return [n for n in self._names() if n.startswith(prefixes)]

    def stats(self):
        return {"entries": len(self.entries())}

    def clear(self):
        """Remove every entry, stale versions and kinds included."""
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass
