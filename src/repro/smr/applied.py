"""The apply history a site keeps: every entry it applied, in order.

Applies are contiguous by invariant -- a site resumes exactly one above
its last snapshot restore and never skips an index -- so an entry's index
is implied by its position and is not stored: the history is a ``floor``
(the index the site was last restored to, 0 if never) and one list slot
per applied entry. Iterating it still yields ``(index, entry)`` pairs, so
readers written against a list of pairs run unchanged.

Appends happen on every apply at every site, so the servers inline them:
one compare, then a builtin ``list.append``. On a failed compare they
raise :func:`out_of_order`, the message the post-run checker gives.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.errors import InvariantViolation


def out_of_order(name: str, index: int, floor: int,
                 count: int) -> InvariantViolation:
    """The violation for applying ``index`` where ``floor + count + 1``
    was due: ``count`` applies since the last restore, to ``floor``."""
    if count == 0:
        return InvariantViolation(
            f"{name}: first applied index {index} but the last snapshot "
            f"restore covered through {floor} (expected {floor + 1})")
    return InvariantViolation(
        f"{name}: applied index {index} after {floor + count} "
        f"(applies must be contiguous)")


class AppliedLog:
    """Entries applied since the last restore to ``floor``; entry ``i``
    of ``entries`` was applied at index ``floor + 1 + i``.

    The servers append with ``if index != h.floor + len(h.entries) + 1:
    raise out_of_order(...)`` then ``h.entries.append(entry)``.
    """

    __slots__ = ("floor", "entries")

    def __init__(self, floor: int = 0) -> None:
        self.floor = floor
        self.entries: list[Any] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        return enumerate(self.entries, self.floor + 1)
