"""Parser for the spec syntax of Table 1.

Grammar (one spec)::

    spec      := [name] clause*
    clause    := "@" versions
               | "+" variant | "~" variant | "-" variant
               | key "=" value
               | "%" spec            (build dependency)
               | "^" spec            (link-run dependency)

``arch=``, ``os=`` and ``target=`` are reserved keys that set node
attributes rather than variants; everything else after ``=`` is a valued
variant.  ``^`` and ``%`` start *dependency* specs that bind more tightly
than the enclosing spec, i.e. ``hdf5 ^zlib@1.2 +shared`` attaches
``+shared`` to zlib (use spec separators carefully, exactly like Spack).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .spec import Spec, SpecError, DEPTYPE_BUILD, DEPTYPE_LINK_RUN
from .variant import VariantError
from .version import VersionList, VersionError

__all__ = ["SpecParser", "SpecParseError", "parse", "parse_one"]


class SpecParseError(SpecError):
    """Raised on malformed spec syntax."""


TOKEN_RE = re.compile(
    r"""
    (?P<version>@\s*=?\s*[A-Za-z0-9_.\-]*(?:\s*:\s*[A-Za-z0-9_.\-]*)?
        (?:\s*,\s*[A-Za-z0-9_.\-]*(?:\s*:\s*[A-Za-z0-9_.\-]*)?)*)
  | (?P<bool_variant>[+~](?:\s*)[A-Za-z0-9_][A-Za-z0-9_\-]*)
  | (?P<kv>[A-Za-z0-9_][A-Za-z0-9_\-]*\s*=\s*[A-Za-z0-9_.\-,]+)
  | (?P<hash>/[a-f0-9]+)
  | (?P<dep>\^)
  | (?P<builddep>%)
  | (?P<name>[A-Za-z0-9_][A-Za-z0-9_.\-]*)
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

#: key=value keys that set node attributes instead of variants
RESERVED_KEYS = {"os", "target", "arch", "namespace"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = TOKEN_RE.match(text, pos)
        if match is None:
            raise SpecParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(0)))
        pos = match.end()
    return tokens


class SpecParser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse_specs(self) -> List[Spec]:
        """Parse a whitespace-separated list of independent specs."""
        specs: List[Spec] = []
        while self._peek() is not None:
            specs.append(self.parse_spec())
        return specs

    def parse_spec(self) -> Spec:
        spec = self._parse_node(allow_anonymous=True)
        while True:
            token = self._peek()
            if token is None:
                break
            kind, _ = token
            if kind == "dep":
                self._next()
                dep = self._parse_dependency(spec)
                self._attach_subdeps(dep)
                spec.add_dependency(dep, (DEPTYPE_LINK_RUN,))
            elif kind == "builddep":
                self._next()
                dep = self._parse_dependency(spec)
                spec.add_dependency(dep, (DEPTYPE_BUILD,))
            elif kind == "name":
                break  # start of the next independent spec
            else:
                raise SpecParseError(
                    f"unexpected token {token[1]!r} in {self.text!r}"
                )
        return spec

    def _parse_dependency(self, root: Spec) -> Spec:
        dep = self._parse_node(allow_anonymous=False)
        if dep.name == root.name:
            raise SpecParseError(f"{dep.name!r} cannot depend on itself in {self.text!r}")
        return dep

    def _attach_subdeps(self, parent: Spec) -> None:
        """Dependencies written after a ^dep chain onto the root, matching
        Spack: ``a ^b ^c`` means a depends on b AND c (both attach to a)."""
        # Spack semantics: all ^-deps attach to the root spec, so nothing
        # nests here.  This hook exists for documentation and future
        # parenthesized syntax.
        return None

    def _parse_node(self, allow_anonymous: bool) -> Spec:
        spec = Spec()
        token = self._peek()
        if token is not None and token[0] == "name":
            spec.name = self._next()[1]
        elif not allow_anonymous:
            raise SpecParseError(f"expected a package name in {self.text!r}")
        while True:
            token = self._peek()
            if token is None:
                break
            kind, text = token
            if kind == "version":
                self._next()
                vtext = text[1:].replace(" ", "")
                if not vtext:
                    # VersionList.from_string("") means "any version":
                    # a bare '@' would silently drop the constraint
                    raise SpecParseError(f"empty version after '@' in {self.text!r}")
                try:
                    spec.versions = spec.versions.intersection(
                        VersionList.from_string(vtext)
                    )
                except VersionError as e:
                    raise SpecParseError(str(e)) from e
                if not spec.versions:
                    raise SpecParseError(f"contradictory versions in {self.text!r}")
            elif kind == "bool_variant":
                self._next()
                self._set_variant(spec, text[1:].strip(), text[0] == "+")
            elif kind == "hash":
                self._next()
                spec.abstract_hash = text[1:]
            elif kind == "kv":
                self._next()
                key, _, value = text.partition("=")
                key, value = key.strip(), value.strip()
                if key in RESERVED_KEYS:
                    self._set_reserved(spec, key, value)
                else:
                    self._set_variant(spec, key, value)
            else:
                break
        if spec.name is None and self._spec_is_empty(spec):
            raise SpecParseError(f"empty spec in {self.text!r}")
        return spec

    def _set_variant(self, spec: Spec, name: str, value) -> None:
        try:
            spec.variants.set(name, value)
        except VariantError as e:
            raise SpecParseError(f"{e} in {self.text!r}") from e

    @staticmethod
    def _spec_is_empty(spec: Spec) -> bool:
        return (
            spec.versions.is_any
            and len(spec.variants) == 0
            and spec.os is None
            and spec.target is None
            and spec.abstract_hash is None
        )

    @staticmethod
    def _set_reserved(spec: Spec, key: str, value: str) -> None:
        if key == "os":
            spec.os = value
        elif key == "target":
            spec.target = value
        elif key == "namespace":
            spec.namespace = value
        elif key == "arch":
            # arch=platform-os-target or arch=os-target or bare target
            parts = value.split("-")
            if len(parts) >= 3:
                spec.os, spec.target = parts[-2], parts[-1]
            elif len(parts) == 2:
                spec.os, spec.target = parts[0], parts[1]
            else:
                spec.target = value


def parse(text: str) -> List[Spec]:
    """Parse a string of whitespace-separated specs."""
    return SpecParser(text).parse_specs()


def parse_one(text: str) -> Spec:
    """Parse exactly one spec; raise if the text holds zero or several."""
    specs = parse(text)
    if len(specs) != 1:
        raise SpecParseError(
            f"expected exactly one spec in {text!r}, got {len(specs)}"
        )
    return specs[0]
