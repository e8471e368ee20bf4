"""The named pass/fail row, a named tuple, that ``ktheory`` asserts and ``verify`` reports."""

from __future__ import annotations

from collections import namedtuple


class Check(namedtuple("Check", "name passed expected actual")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.passed:
            return f"{status} {self.name}: {self.expected} == {self.actual}"
        return f"{status} {self.name}: expected {self.expected}, got {self.actual}"


def _check(name, expected, actual) -> Check:
    return Check(name, expected == actual, str(expected), str(actual))


def _check_all(name, mismatches, total) -> Check:
    if mismatches:
        return Check(name, False, "no mismatches",
                     f"{len(mismatches)} of {total}: " + "; ".join(mismatches[:3]))
    return Check(name, True, f"all {total} cases", f"all {total} cases")
