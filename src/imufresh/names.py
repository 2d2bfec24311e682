"""Canonical feature-name codec.

A feature is identified by the channel kind it is computed from, the
calculator that produced it, and the calculator's parameters:

    ``kind__calculator__param1_value1__param2_value2``

Booleans render as ``True``/``False``, strings inside double quotes, and
reals always with a decimal point (``1.0``, ``0.4``).  Parameters appear in
the calculator's declared order, which makes the encoding canonical:
``decode_feature_name(f.canonical()) == f`` for every valid name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import MalformedFeatureName
from .timeseries import _IDENT_RE, validate_kind

SEPARATOR = "__"

ParamValue = bool | int | float | str

_INT_RE = re.compile(r"^[+-]?\d+$")


def validate_identifier(name: str, what: str) -> str:
    """Calculator and parameter names: alnum words joined by single underscores."""
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise MalformedFeatureName(f"invalid {what}: {name!r}")
    return name


def render_value(value: ParamValue) -> str:
    """Render one parameter value for the canonical string."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise MalformedFeatureName("non-finite parameter values are not encodable")
        return repr(value)
    if isinstance(value, str):
        # Canonical names appear verbatim in CSV headers and space-separated
        # artifact files, so these characters cannot be represented.
        if any(ch in value for ch in ('"', SEPARATOR, ",", " ", "\n", "\r")):
            raise MalformedFeatureName(f"string parameter value not encodable: {value!r}")
        return f'"{value}"'
    raise MalformedFeatureName(f"unsupported parameter value type: {type(value).__name__}")


def parse_value(text: str) -> ParamValue:
    """Inverse of :func:`render_value`; raises MalformedFeatureName."""
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        inner = text[1:-1]
        if '"' in inner:
            raise MalformedFeatureName(f"bad quoted value: {text!r}")
        return inner
    if text == "True":
        return True
    if text == "False":
        return False
    if _INT_RE.match(text):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        raise MalformedFeatureName(f"unparseable parameter value: {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise MalformedFeatureName(f"non-finite parameter value: {text!r}")
    return value


def split_param_token(token: str) -> tuple[str, ParamValue]:
    """Split a ``name_value`` token.

    The value grammar (quoted string, True/False, integer, real) never
    contains an underscore outside quotes, so splitting on the underscore
    that precedes the value is unambiguous.
    """
    if token.endswith('"'):
        open_quote = token.find('"')
        if open_quote <= 0 or token[open_quote - 1] != "_":
            raise MalformedFeatureName(f"malformed parameter token: {token!r}")
        name, raw = token[: open_quote - 1], token[open_quote:]
    else:
        name, sep, raw = token.rpartition("_")
        if not sep:
            raise MalformedFeatureName(f"parameter token has no value: {token!r}")
    validate_identifier(name, "parameter name")
    return name, parse_value(raw)


@dataclass(frozen=True)
class FeatureName:
    """Structured (kind, calculator, ordered params) feature identity.

    The canonical string is rendered once, at construction, which also
    rejects unencodable values early.
    """

    kind: str
    calculator: str
    params: tuple[tuple[str, ParamValue], ...] = field(default_factory=tuple)
    _canonical: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        validate_kind(self.kind)
        validate_identifier(self.calculator, "calculator name")
        object.__setattr__(self, "params", tuple((n, v) for n, v in self.params))
        parts = [self.kind, self.calculator]
        for name, value in self.params:
            validate_identifier(name, "parameter name")
            parts.append(f"{name}_{render_value(value)}")
        object.__setattr__(self, "_canonical", SEPARATOR.join(parts))

    def canonical(self) -> str:
        return self._canonical

    def param_dict(self) -> dict[str, ParamValue]:
        return dict(self.params)

    def __str__(self) -> str:
        return self.canonical()


def split_tokens(s: str) -> list[str]:
    if not s:
        raise MalformedFeatureName("empty feature name")
    tokens = s.split(SEPARATOR)
    if len(tokens) < 2 or any(not t for t in tokens):
        raise MalformedFeatureName(f"feature name needs kind and calculator: {s!r}")
    return tokens
