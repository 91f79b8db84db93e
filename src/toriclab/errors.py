"""Shared failure types, and the input reader that names its file in errors."""

from __future__ import annotations

import json


class ScaleGuardError(RuntimeError):
    """Input exceeds the default size budget; callers may override with force."""


class InternalInvariantError(RuntimeError):
    """A structural property the implementation relies on was violated."""


def read_named(path, parse, error=ValueError):
    """``parse`` of the file's UTF-8 text, after any byte order mark.  Each
    decode or parse error names the file.  One that is neither an ``error``
    nor a JSON decode error, and undecodable bytes, become an ``error``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse(fh.read())
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from exc
    except RecursionError as exc:  # JSON nested past the interpreter's stack
        raise error(f"{path}: JSON nests too deeply to read") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
    except ValueError as exc:  # a parse error, an integer past 4,300 digits
        kind = type(exc) if isinstance(exc, error) else error
        raise kind(f"{path}: {exc}") from exc
