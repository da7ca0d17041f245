"""Prometheus text-format exporter and format validator.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.MetricsSnapshot`
in the Prometheus text exposition format (version 0.0.4): ``# HELP`` /
``# TYPE`` headers, escaped label values, cumulative histogram buckets with
a ``+Inf`` bound plus ``_sum`` / ``_count`` series.

:func:`validate_prometheus_text` is a dependency-free lint of that format —
CI pipes every exported file through it (``python -m repro.obs.export
FILE``) so a malformed escape or an out-of-order ``# TYPE`` fails
the build rather than a scrape.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import List, Optional, Sequence

from .metrics import MetricsSnapshot

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"$'
)
_VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict, extra: Optional[List[tuple]] = None) -> str:
    pairs = [(key, str(value)) for key, value in sorted(labels.items())]
    if extra:
        pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + body + "}"


def to_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in snapshot.metrics:
        name = metric["name"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {_escape_help(metric['help'])}")
        lines.append(f"# TYPE {name} {metric['kind']}")
        if metric["kind"] == "histogram":
            bounds = [_format_value(float(bound)) for bound in metric["buckets"]]
            for sample in metric["samples"]:
                cumulative = 0
                for bound, count in zip(bounds + ["+Inf"], sample["counts"]):
                    cumulative += count
                    labelstr = _format_labels(sample["labels"], extra=[("le", bound)])
                    lines.append(f"{name}_bucket{labelstr} {cumulative}")
                labelstr = _format_labels(sample["labels"])
                lines.append(f"{name}_sum{labelstr} {_format_value(sample['sum'])}")
                lines.append(f"{name}_count{labelstr} {sample['count']}")
        else:
            for sample in metric["samples"]:
                labelstr = _format_labels(sample["labels"])
                lines.append(f"{name}{labelstr} {_format_value(sample['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


def _parse_value(raw: str) -> Optional[float]:
    if raw in ("+Inf", "Inf"):
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        return None


def _split_labels(body: str) -> Optional[List[str]]:
    """Split a label body on commas that are outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes or escaped:
        return None
    if current or parts:
        parts.append("".join(current))
    return parts


def validate_prometheus_text(text: str) -> List[str]:
    """Lint Prometheus text format; returns a list of error strings."""
    errors: List[str] = []
    declared_types: dict = {}
    sampled_names: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split(" ", 3)
            if len(fields) >= 2 and fields[1] in ("HELP", "TYPE"):
                if len(fields) < 3 or not _NAME_RE.match(fields[2]):
                    errors.append(f"line {lineno}: malformed {fields[1]} comment")
                    continue
                if fields[1] == "TYPE":
                    name = fields[2]
                    kind = fields[3].strip() if len(fields) > 3 else ""
                    if kind not in _VALID_TYPES:
                        errors.append(f"line {lineno}: unknown metric type {kind!r}")
                    if name in declared_types:
                        errors.append(f"line {lineno}: duplicate TYPE for {name}")
                    if name in sampled_names:
                        errors.append(
                            f"line {lineno}: TYPE for {name} appears after its samples"
                        )
                    declared_types[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparsable sample line: {line!r}")
            continue
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        sampled_names.add(base if base in declared_types else name)
        if _parse_value(match.group("value")) is None:
            errors.append(f"line {lineno}: invalid sample value {match.group('value')!r}")
        body = match.group("labels")
        if body is not None:
            parts = _split_labels(body)
            if parts is None:
                errors.append(f"line {lineno}: unterminated label quoting")
                continue
            for part in parts:
                if not _LABEL_PAIR_RE.match(part):
                    errors.append(f"line {lineno}: malformed label pair {part!r}")
    return errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate a Prometheus text-format metrics file."
    )
    parser.add_argument("path", help="metrics file to check ('-' for stdin)")
    args = parser.parse_args(argv)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    errors = validate_prometheus_text(text)
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    samples = sum(
        1 for line in text.splitlines() if line.strip() and not line.startswith("#")
    )
    print(f"OK: {samples} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
