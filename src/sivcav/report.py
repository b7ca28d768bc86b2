"""Analysis reports: self-contained, schema-validated JSON documents.

Every CLI command emits one report holding an echo of its inputs (flags plus
SHA-256 digests of the files it read and the data files it wrote), named
results with units and optional uncertainties, and provenance (tool version,
seeds, timestamp). Two runs with identical inputs produce identical reports
up to the timestamp field.

Reports are checked against the bundled JSON Schema in-house, with the
semantics of draft 2020-12 for the keywords that schema uses: type, const,
required, properties, additionalProperties, anyOf, minLength and pattern. A
schema with any other keyword (annotations such as title aside) raises
NotImplementedError rather than pass unchecked; the tests hold the checker
to the jsonschema package.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import numbers
import re
import sys
from importlib import resources

from . import __version__
from .errors import ValidationError


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def result_entry(value, units, sigma=None):
    entry = {"value": value, "units": units}
    if sigma is not None:
        entry["sigma"] = sigma
    return entry


def build_report(command, inputs, results, seed=None, extra_provenance=None):
    provenance = {
        "tool": "sivcav",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if seed is not None:
        provenance["seed"] = seed
    provenance.update(extra_provenance or {})
    return {
        "schema": "sivcav-report/1",
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": provenance,
    }


def load_report_schema():
    with resources.files("sivcav").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


_TYPES = {  # JSON types as draft 2020-12 reads Python values: a bool is no number
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_ANNOTATIONS = frozenset(("$schema", "$id", "title", "description", "$comment"))
_KEYWORDS = frozenset(("type", "const", "required", "properties", "additionalProperties",
                       "anyOf", "minLength", "pattern"))


def _json_equal(a, b):
    """Equality of JSON values: a bool equals only a bool, 1 equals 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _check_keywords(schema):
    """NotImplementedError for a keyword, in schema or a subschema, that
    _violations does not check."""
    if isinstance(schema, bool):
        return
    unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise NotImplementedError(f"report schema keyword(s) {sorted(unknown)} are not checked")
    for sub in (*schema.get("properties", {}).values(), *schema.get("anyOf", ()),
                schema.get("additionalProperties", True)):
        _check_keywords(sub)


def _violations(value, schema):
    """The first violation of schema by value, as jsonschema words it, or None."""
    if schema is True:
        return None
    if schema is False:
        return f"False schema does not allow {value!r}"
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_TYPES[kind](value) for kind in kinds):
        return f"{value!r} is not of type {', '.join(map(repr, kinds))}"
    if "const" in schema and not _json_equal(value, schema["const"]):
        return f"{schema['const']!r} was expected"
    if "anyOf" in schema and all(_violations(value, sub) for sub in schema["anyOf"]):
        return f"{value!r} is not valid under any of the given schemas"
    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            return f"{value!r} {'should be non-empty' if schema['minLength'] == 1 else 'is too short'}"
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return f"{value!r} does not match {schema['pattern']!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{key!r} is a required property"
        properties = schema.get("properties", {})
        for key, item in value.items():
            problem = _violations(item, properties.get(key, schema.get("additionalProperties", True)))
            if problem:
                return problem
    return None


def validate_report(report):
    """ValidationError unless report satisfies the bundled schema."""
    schema = load_report_schema()
    _check_keywords(schema)
    problem = _violations(report, schema)
    if problem:
        raise ValidationError([f"report fails its schema: {problem}"])


def emit_report(report, out=None, summary_lines=()):
    """Write the JSON report to stdout (or a file) and a human summary to stderr.

    The report is checked against the schema and must be strict JSON (no NaN
    or infinity); otherwise ValidationError is raised and nothing is written.
    """
    validate_report(report)
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise ValidationError([f"report is not strict JSON: {err}"]) from None
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for line in summary_lines:
        print(line, file=sys.stderr)


def emit_error(kind, message, violations=None):
    doc = {"error": {"type": kind, "message": message}}
    if violations:
        doc["error"]["violations"] = list(violations)
    print(json.dumps(doc, indent=2, sort_keys=True), file=sys.stderr)
    return 2
