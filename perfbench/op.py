"""The unit of work a workload hands to the timing loop."""

from __future__ import annotations

from typing import Callable, Optional


class OpError:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


class Op:
    """One user-visible operation: ``run`` is timed, ``check`` is not.

    ``check(output)`` returns None when the output is right, else a reason.
    ``known_fault`` marks the op kind kept on purpose although the program
    gets it wrong today.
    """

    __slots__ = ("kind", "run", "check", "known_fault")

    def __init__(self, kind: str, run: Callable, check: Callable,
                 known_fault: bool = False):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_fault = known_fault

    def verdict(self, output) -> Optional[str]:
        if isinstance(output, OpError):
            return output.text
        try:
            return self.check(output)
        except Exception as exc:  # unexpected output shape: a wrong answer
            return f"check raised {type(exc).__name__}: {exc}"

