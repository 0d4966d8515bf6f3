"""A binary-cache mirror held in process memory.

The install workload publishes to and installs from this backend: a
remote object store without network latency.  On a shared two-vCPU
virtual machine, fsync latency of the local disk shifted by 2x over
10-60 s stretches, which made publish times to an on-disk cache swing
more from run to run than any bound could absorb; in memory the same
publish and install repeat to within a few percent.  Writes are
atomic because nothing else can observe them half-done.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.buildcache.backend import MissingBlobError, StorageBackend


def _path_order(rel: str):
    """Sort key matching a sorted directory walk (component-wise)."""
    return rel.split("/")


class MemoryBackend(StorageBackend):
    """The StorageBackend contract, as far as BuildCache uses it, over two
    dicts: single blobs (index, shards, journal) and published trees (one
    per cache entry, never nested)."""

    name = "memory"

    def __init__(self):
        self.blobs: Dict[str, Union[bytes, bytearray]] = {}
        #: published prefix -> (files by path below it, explicit dirs)
        self.trees: Dict[str, Tuple[Dict[str, bytes], List[str]]] = {}

    def _locate(self, key: str) -> Optional[Tuple[str, str]]:
        """(published prefix, path below it) of the tree holding ``key``;
        the path is empty when ``key`` is the tree's own prefix."""
        parts = key.split("/")
        for depth in range(len(parts), 0, -1):
            prefix = "/".join(parts[:depth])
            if prefix in self.trees:
                return prefix, "/".join(parts[depth:])
        return None

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> bytes:
        if key in self.blobs:
            return bytes(self.blobs[key])
        found = self._locate(key)
        if found is not None:
            files, _dirs = self.trees[found[0]]
            if found[1] in files:
                return files[found[1]]
        raise MissingBlobError(f"{self.describe()}: no blob at {key!r}")

    def exists(self, key: str) -> bool:
        if key in self.blobs:
            return True
        found = self._locate(key)
        return found is not None and found[1] in self.trees[found[0]][0]

    def list_tree(self, prefix: str) -> Tuple[List[str], List[str]]:
        """Lists inside one published tree, the only listing the cache
        makes (an entry's ``files`` directory)."""
        found = self._locate(prefix)
        if found is None:
            raise MissingBlobError(f"{self.describe()}: no tree at {prefix!r}")
        tree_files, tree_dirs = self.trees[found[0]]
        sub = found[1] + "/" if found[1] else ""
        files = [rel[len(sub):] for rel in tree_files if rel.startswith(sub)]
        dirs = {rel[len(sub):] for rel in tree_dirs if rel.startswith(sub)}
        if not (files or dirs or found[1] in ("", *tree_dirs)):
            raise MissingBlobError(f"{self.describe()}: no tree at {prefix!r}")
        for rel in files:
            parts = rel.split("/")[:-1]
            dirs.update("/".join(parts[:depth]) for depth in range(1, len(parts) + 1))
        return sorted(files, key=_path_order), sorted(dirs, key=_path_order)

    def tree_exists(self, prefix: str) -> bool:
        try:
            self.list_tree(prefix)
        except MissingBlobError:
            return False
        return True

    # -- writes --------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        self._require_writable()
        self.blobs[key] = bytes(data)

    def delete(self, key: str) -> None:
        self._require_writable()
        self.blobs.pop(key, None)

    def append_line(self, key: str, line: bytes) -> None:
        self._require_writable()
        current = self.blobs.get(key)
        if not isinstance(current, bytearray):
            current = self.blobs[key] = bytearray(current or b"")
        current += line

    def publish_tree(
        self,
        prefix: str,
        files: Dict[str, bytes],
        dirs: Sequence[str] = (),
    ) -> None:
        self._require_writable()
        self.trees[prefix] = ({rel: bytes(data) for rel, data in files.items()}, list(dirs))
