"""Analysis reports: self-contained, schema-validated JSON documents.

Every CLI command emits one report holding an echo of its inputs (flags plus
SHA-256 digests of every input file), named results with units and optional
uncertainties, and provenance (tool version, seeds, timestamp). Two runs with
identical inputs produce identical reports up to the timestamp field.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import sys
from importlib import resources

import jsonschema

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


def validate_report(report):
    # the bundled schema itself is checked by the tests, not on every report
    schema = load_report_schema()
    jsonschema.validators.validator_for(schema)(schema).validate(report)


def emit_report(report, out=None, summary_lines=()):
    """Write the JSON report to stdout (or a file) and a human summary to stderr.

    The report is checked against the schema and must be strict JSON (no NaN
    or infinity); otherwise ValidationError is raised and nothing is written.
    """
    try:
        validate_report(report)
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except jsonschema.ValidationError as err:
        raise ValidationError([f"report fails its schema: {err.message}"]) from None
    except ValueError as err:
        raise ValidationError([f"report is not strict JSON: {err}"]) from None
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for line in summary_lines:
        print(line, file=sys.stderr)


def emit_error(kind, message, violations=None, exit_code=2):
    doc = {"error": {"type": kind, "message": message}}
    if violations:
        doc["error"]["violations"] = list(violations)
    print(json.dumps(doc, indent=2, sort_keys=True), file=sys.stderr)
    return exit_code
