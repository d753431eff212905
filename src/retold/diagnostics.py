"""Validation diagnostics shared by the story and tree validators."""

from __future__ import annotations

from .record import Record, slot_setters

ERROR = "error"
WARNING = "warning"


class Diagnostic(Record):
    __slots__ = _fields = ("severity", "location", "message")

    def __init__(self, severity: str, location: str, message: str):
        set_severity, set_location, set_message = _DIAGNOSTIC_SETTERS
        set_severity(self, severity)
        set_location(self, location)
        set_message(self, message)

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


_DIAGNOSTIC_SETTERS = slot_setters(Diagnostic)
