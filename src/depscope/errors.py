"""Exception types raised across the toolkit."""

from __future__ import annotations


class DepscopeError(Exception):
    """Base class for every error the toolkit raises on bad input."""


class MalformedCoordinate(DepscopeError):
    def __init__(self, text: str):
        super().__init__(f"malformed coordinate {text!r} (expected g:a:v)")
        self.text = text


class MalformedTreeLine(DepscopeError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"malformed tree line {line_no}: {reason}")
        self.line_no = line_no


class DuplicateGa(DepscopeError):
    def __init__(self, ga, line_no: int | None = None):
        super().__init__(f"library {ga} appears more than once in the tree"
                         + (f", again at line {line_no}" if line_no else ""))
        self.ga = ga
        self.line_no = line_no


class EmptyInput(DepscopeError):
    def __init__(self):
        super().__init__("input contains no tree")


class SchemaViolation(DepscopeError):
    def __init__(self, pointer: str, reason: str):
        super().__init__(f"schema violation at {pointer or '<document>'}: {reason}")
        self.pointer = pointer
        self.reason = reason


class MalformedRow(DepscopeError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"malformed CSV row at line {line_no}: {reason}")
        self.line_no = line_no


class DuplicateVersion(DepscopeError):
    def __init__(self, ga, version: str, line_no: int | None = None):
        super().__init__(f"duplicate release {ga}:{version} in history"
                         + (f" at line {line_no}" if line_no else ""))
        self.ga = ga
        self.version = version
        self.line_no = line_no


class EmptyAffectedSet(DepscopeError):
    def __init__(self, vuln_id: str):
        super().__init__(f"vulnerability {vuln_id} has an empty affected set")
        self.vuln_id = vuln_id


class UnknownVersion(DepscopeError):
    def __init__(self, gav):
        super().__init__(f"version of {gav} does not appear in its release history")
        self.gav = gav


class MissingHistory(DepscopeError):
    def __init__(self, ga):
        super().__init__(f"no release history for library {ga}")
        self.ga = ga


class EmptyPool(DepscopeError):
    def __init__(self):
        super().__init__("simulation pool contains no trees")


class InsufficientLibraries(DepscopeError):
    def __init__(self, requested: int, available: int):
        super().__init__(
            f"cannot draw {requested} distinct libraries from a pool of {available}"
        )
        self.requested = requested
        self.available = available


class ReservedGroup(DepscopeError):
    def __init__(self, ga, reserved: str):
        super().__init__(f"pool library {ga} shares a project with the synthetic roots' group {reserved}")
        self.ga = ga


class InputFileError(DepscopeError):
    """Wraps a module error with the file it occurred in (CLI context)."""

    def __init__(self, path, cause: Exception):
        super().__init__(f"{path}: {cause}")
        self.path = path
        self.cause = cause
