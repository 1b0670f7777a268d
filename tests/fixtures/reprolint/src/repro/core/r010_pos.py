"""R010 positive: annotations naming what the module never binds."""

from __future__ import annotations

from typing import List


def solve(problem: Problem) -> List[Result]:  # line 8: flagged x2
    return []


def hook(attrs: List[Tuple[str, Optional[str]]]) -> None:  # line 12: x2
    pass


class Holder:
    pending: "Deque[int]"  # line 17: flagged (quoted forward reference)

    def run(self, *args: Job, **kwargs: int) -> None:  # line 19: flagged
        pass
