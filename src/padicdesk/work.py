"""The work budget: the one owner of `--budget` and of its message.

Every enumeration whose size grows with p or n calls `charge` with the
count it is about to visit, before its loop starts, so a refusal does not
depend on how far a loop ran.  The budget is per check: each count is
compared with the whole budget, not with what earlier checks used.  Code
outside `budget(...)` runs under the default budget of 10^6.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 10 ** 6
_PRINTABLE_BITS = 8192  # a refused count longer than this is not written out

_budget = ContextVar("budget", default=DEFAULT_BUDGET)  # one per thread or task


class BudgetExceeded(Exception):
    """A check needs more work than the budget allows."""


@contextmanager
def budget(limit: int):
    """Run the body under `limit`; the budget before it comes back afterwards."""
    token = _budget.set(limit)
    try:
        yield
    finally:
        _budget.reset(token)


def charge(check: str, count, unit: str) -> None:
    """Raise BudgetExceeded when `check` needs more than the budget.

    `count` is an int, or a power (base, exp) with base >= 2: a power is
    built only when it is at most about the budget squared or short enough
    to print, so a huge one is refused without computing it.  A count too
    long to print is written by its bit length.
    """
    limit = _budget.get()
    if isinstance(count, tuple):
        base, exp = count
        bits = base.bit_length()
        # base^exp >= 2^(exp (bits - 1)), so past the budget's length it is over
        if exp * (bits - 1) < limit.bit_length() and base ** exp <= limit:
            return
        if exp * bits > _PRINTABLE_BITS:
            raise BudgetExceeded(f"{check} needs {base}^{exp} {unit} > budget {limit}")
        count = base ** exp
    if count <= limit:
        return
    if count.bit_length() > _PRINTABLE_BITS:
        raise BudgetExceeded(f"{check} needs at least 2^{count.bit_length() - 1} {unit}"
                             f" > budget {limit}")
    raise BudgetExceeded(f"{check} needs {count} {unit} > budget {limit} ({count - limit} over)")


def charge_digits(check: str, digits: int) -> None:
    """`charge` the decimal digits of a number `check` is about to build and write.

    Past `sys.get_int_max_str_digits()` (when it is set), writing it with
    str() would raise, so a count past that limit is refused as well.
    """
    charge(check, digits, "digits")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise BudgetExceeded(f"{check} needs {digits} digits > the int-to-str limit"
                             f" of {limit} digits")
