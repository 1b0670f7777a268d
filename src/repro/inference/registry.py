"""The inference-algorithm registry.

Inference algorithms register themselves at definition time with
:func:`register_algorithm`, attaching capability metadata (is the solver
exact or approximate?  does it reason collectively across tables?) that the
service layer surfaces in explain payloads and the CLI uses to build its
option lists.  The registry implements the ``Mapping`` protocol, so
``REGISTRY[name]``, ``name in REGISTRY`` and ``REGISTRY.items()`` work as
on a plain dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..core.model import ColumnMappingProblem
    from .base import MappingResult

#: An inference algorithm maps a column-mapping problem to a labeling.
InferenceFn = Callable[["ColumnMappingProblem"], "MappingResult"]

__all__ = [
    "AlgorithmInfo",
    "InferenceRegistry",
    "UnknownAlgorithmError",
    "DEFAULT_REGISTRY",
    "register_algorithm",
]


class UnknownAlgorithmError(KeyError):
    """Raised when a requested inference algorithm is not registered."""

    def __init__(self, name: str, options: List[str]) -> None:
        self.name = name
        self.options = options
        super().__init__(
            f"unknown inference algorithm {name!r}; options: {sorted(options)}"
        )

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registered algorithm plus its capability metadata."""

    name: str
    fn: InferenceFn
    #: True when the solver is guaranteed to find the global optimum of
    #: Eq. 9 (none of the collective solvers is; the exhaustive oracle is).
    exact: bool = False
    #: True when the algorithm exchanges information across tables
    #: (Section 3.3's collective signals).
    collective: bool = True
    description: str = ""
    #: Relative running-cost hint used by :meth:`InferenceRegistry.fastest`
    #: to pick a degraded-mode fallback (lower = cheaper; ties among
    #: equally cheap algorithms break on ``collective`` then name).
    cost_hint: float = 1.0

    @property
    def capability(self) -> str:
        """``"exact"`` or ``"approximate"`` — the headline guarantee."""
        return "exact" if self.exact else "approximate"


class InferenceRegistry(Mapping[str, InferenceFn]):
    """Name -> algorithm registry with decorator-based registration.

    Reads like a plain ``Dict[str, InferenceFn]`` while also exposing
    per-algorithm metadata via :meth:`info`.
    """

    def __init__(self) -> None:
        self._algorithms: Dict[str, AlgorithmInfo] = {}

    # -- registration -----------------------------------------------------

    def register(
        self,
        name: str,
        *,
        exact: bool = False,
        collective: bool = True,
        description: str = "",
        cost_hint: float = 1.0,
        replace: bool = False,
    ) -> Callable[[InferenceFn], InferenceFn]:
        """Decorator: register the wrapped function under ``name``."""

        def decorator(fn: InferenceFn) -> InferenceFn:
            self.add(
                name,
                fn,
                exact=exact,
                collective=collective,
                description=description,
                cost_hint=cost_hint,
                replace=replace,
            )
            return fn

        return decorator

    def add(
        self,
        name: str,
        fn: InferenceFn,
        *,
        exact: bool = False,
        collective: bool = True,
        description: str = "",
        cost_hint: float = 1.0,
        replace: bool = False,
    ) -> AlgorithmInfo:
        """Imperative registration (the decorator's workhorse)."""
        if not name:
            raise ValueError("algorithm name must be non-empty")
        if name in self._algorithms and not replace:
            raise ValueError(
                f"algorithm {name!r} is already registered; "
                "pass replace=True to override"
            )
        info = AlgorithmInfo(
            name=name,
            fn=fn,
            exact=exact,
            collective=collective,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
            cost_hint=cost_hint,
        )
        self._algorithms[name] = info
        return info

    # -- lookup -----------------------------------------------------------

    def info(self, name: str) -> AlgorithmInfo:
        """Full metadata record for one algorithm."""
        try:
            return self._algorithms[name]
        except KeyError:
            raise UnknownAlgorithmError(name, list(self._algorithms)) from None

    def get_algorithm(self, name: str) -> InferenceFn:
        """The callable registered under ``name``."""
        return self.info(name).fn

    def names(self) -> List[str]:
        """Sorted registered names."""
        return sorted(self._algorithms)

    def fastest(self) -> str:
        """Name of the cheapest registered algorithm.

        The execution engine's degraded mode falls back to this solver
        when a query's deadline expires before column mapping (see
        DESIGN.md, "Execution engine").  Ordering: lowest ``cost_hint``
        first, non-collective before collective (per-table matching skips
        the cross-table message passing, Table 2's cheap column), name as
        the deterministic tie-break.
        """
        if not self._algorithms:
            raise UnknownAlgorithmError("<fastest>", [])
        return min(
            self._algorithms.values(),
            key=lambda info: (info.cost_hint, info.collective, info.name),
        ).name

    def infos(self) -> List[AlgorithmInfo]:
        """All metadata records, sorted by name."""
        return [self._algorithms[name] for name in self.names()]

    # -- Mapping protocol ------------------------------------------------

    def __getitem__(self, name: str) -> InferenceFn:
        return self.get_algorithm(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._algorithms)

    def __len__(self) -> int:
        return len(self._algorithms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InferenceRegistry({self.names()})"


#: The process-wide registry the stock algorithms register into.
DEFAULT_REGISTRY = InferenceRegistry()


def register_algorithm(
    name: str,
    *,
    exact: bool = False,
    collective: bool = True,
    description: str = "",
    cost_hint: float = 1.0,
    replace: bool = False,
) -> Callable[[InferenceFn], InferenceFn]:
    """Decorator registering into :data:`DEFAULT_REGISTRY`."""
    return DEFAULT_REGISTRY.register(
        name,
        exact=exact,
        collective=collective,
        description=description,
        cost_hint=cost_hint,
        replace=replace,
    )
