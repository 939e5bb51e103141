"""Flat key-value fixture files pinning what a solve chain cannot compute plus
the expected intermediates, for bit-exact replay.

Format: one `key = value` per line, `#` comments; values are integers,
comma-separated integer lists, or semicolon-separated rows of such lists.
Fractions are written as num/den.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .errors import InvalidArgument


@dataclass
class Fixture:
    name: str
    values: dict = field(default_factory=dict)

    def __contains__(self, key):
        return key in self.values

    def __getitem__(self, key):
        if key not in self.values:
            raise InvalidArgument(f"fixture {self.name} lacks key {key!r}")
        return self.values[key]


def _parse_scalar(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    return int(text)


def _parse_value(text: str):
    text = text.strip()
    if ";" in text:
        return tuple(_parse_value(part) for part in text.split(";"))
    if "," in text:
        return tuple(_parse_scalar(p) for p in text.split(","))
    return _parse_scalar(text)


def parse_fixture(text: str, name: str = "<inline>") -> Fixture:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"{name}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise InvalidArgument(f"{name}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(val)
    if "name" in values:
        raise InvalidArgument("'name' is reserved")
    return Fixture(name, values)


def load_fixture(path_or_name: str) -> Fixture:
    """Load from a filesystem path, or from the bundled fixtures by name."""
    import os

    if os.path.isfile(path_or_name):
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidArgument(f"cannot read fixture {path_or_name}: {exc}") from None
        return parse_fixture(text, os.path.basename(path_or_name))
    pkg_name = f"{path_or_name}.fixture"
    ref = resources.files("concordant") / "fixtures" / pkg_name
    if not ref.is_file():
        raise InvalidArgument(f"no fixture file or bundled fixture named {path_or_name!r}")
    return parse_fixture(ref.read_text(encoding="utf-8"), path_or_name)

