"""Experiment harness: run every method over the 59-query workload.

Builds the synthetic corpus, runs the two-stage probe once per query (the
candidate set is shared by all methods, as in the paper), evaluates each
method's column mapping against ground truth with the F1 error of
Section 5, and supports the easy/hard split and the 7-group binning used by
Figures 5-6 and Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.basic import BasicParams, basic_method
from ..baselines.nbrtext import nbrtext_method
from ..baselines.pmi_baseline import pmi_method
from ..core.features import BoundedCache
from ..core.labels import LabelSpace
from ..core.model import build_problem
from ..core.params import DEFAULT_PARAMS, UNSEGMENTED_PARAMS, ModelParams
from ..corpus.generator import CorpusConfig, SyntheticCorpus, generate_corpus
from ..corpus.groundtruth import GroundTruth
from ..inference import get_algorithm
from ..pipeline.probe import ProbeConfig, ProbeResult, two_stage_probe
from ..query.workload import WORKLOAD, WorkloadQuery
from .metrics import f1_error, gold_assignment

__all__ = [
    "WorkloadEnvironment",
    "MethodRun",
    "build_environment",
    "run_method",
    "METHODS",
    "split_easy_hard",
    "bin_queries",
]

#: Queries whose per-method errors all lie within this band are "easy".
EASY_BAND = 0.5
#: Number of hard-query groups in Figures 5/6 and Table 2.
NUM_GROUPS = 7

#: A dense labeling over one query's candidate tables.
Labels = Dict[Tuple[int, int], int]
#: A runnable method: environment + workload query -> labeling.
MethodFn = Callable[["WorkloadEnvironment", WorkloadQuery], Labels]


@dataclass
class WorkloadEnvironment:
    """Shared, expensive setup for one experimental run."""

    synthetic: SyntheticCorpus
    truth: GroundTruth
    candidates: Dict[str, ProbeResult]
    queries: List[WorkloadQuery] = field(default_factory=lambda: list(WORKLOAD))

    def gold(self, wq: WorkloadQuery) -> Dict[Tuple[int, int], int]:
        """Dense gold labels over the query's candidate tables."""
        labels = LabelSpace(wq.query.q)
        return gold_assignment(
            self.truth, wq.query_id, self.candidates[wq.query_id].tables, labels
        )


#: Bounded: a sweep over many (scale, seed) points must not pin every
#: generated corpus in memory at once.
_ENV_CACHE: BoundedCache[Tuple[float, int], WorkloadEnvironment] = BoundedCache(8)


def build_environment(
    scale: float = 1.0,
    seed: int = 42,
    probe_config: Optional[ProbeConfig] = None,
    queries: Optional[Sequence[WorkloadQuery]] = None,
    use_cache: bool = True,
) -> WorkloadEnvironment:
    """Generate the corpus, ground truth, and per-query candidate sets."""
    if probe_config is None:
        probe_config = ProbeConfig()
    cache_key = (scale, seed)
    if use_cache and queries is None:
        cached_env = _ENV_CACHE.get(cache_key)
        if cached_env is not None:
            return cached_env

    synthetic = generate_corpus(CorpusConfig(seed=seed, scale=scale))
    workload = list(queries) if queries is not None else list(WORKLOAD)
    bindings = {wq.query_id: (wq.domain_key, wq.attr_keys) for wq in workload}
    truth = GroundTruth.from_provenance(synthetic.provenance, bindings)

    import dataclasses

    candidates: Dict[str, ProbeResult] = {}
    for i, wq in enumerate(workload):
        config = dataclasses.replace(probe_config, seed=seed + i)
        candidates[wq.query_id] = two_stage_probe(
            wq.query, synthetic.corpus, config
        )

    env = WorkloadEnvironment(
        synthetic=synthetic, truth=truth, candidates=candidates, queries=workload
    )
    if use_cache and queries is None:
        _ENV_CACHE.put(cache_key, env)
    return env


@dataclass
class MethodRun:
    """One method's labelings and errors over the workload."""

    method: str
    labels: Dict[str, Dict[Tuple[int, int], int]]  # query_id -> labeling
    errors: Dict[str, float]  # query_id -> F1 error (percent)

    def mean_error(self, query_ids: Optional[Sequence[str]] = None) -> float:
        """Average error over a subset (default: all queries)."""
        ids = list(query_ids) if query_ids is not None else list(self.errors)
        if not ids:
            return 0.0
        return sum(self.errors[q] for q in ids) / len(ids)


def _run_wwt(
    env: WorkloadEnvironment,
    wq: WorkloadQuery,
    params: ModelParams,
    inference: str,
) -> Dict[Tuple[int, int], int]:
    probe = env.candidates[wq.query_id]
    problem = build_problem(
        wq.query, probe.tables, env.synthetic.corpus.stats, params
    )
    return get_algorithm(inference)(problem).labels


def _method_fn(name: str) -> MethodFn:
    basic_params = BasicParams()

    def basic(env: WorkloadEnvironment, wq: WorkloadQuery) -> Labels:
        probe = env.candidates[wq.query_id]
        return basic_method(
            wq.query, probe.tables, env.synthetic.corpus.stats, basic_params
        ).labels

    def nbrtext(env: WorkloadEnvironment, wq: WorkloadQuery) -> Labels:
        probe = env.candidates[wq.query_id]
        return nbrtext_method(
            wq.query, probe.tables, env.synthetic.corpus.stats, basic_params
        ).labels

    def pmi(env: WorkloadEnvironment, wq: WorkloadQuery) -> Labels:
        probe = env.candidates[wq.query_id]
        return pmi_method(
            wq.query,
            probe.tables,
            env.synthetic.corpus,
            env.synthetic.corpus.stats,
            basic_params,
        ).labels

    table = {
        "basic": basic,
        "nbrtext": nbrtext,
        "pmi2": pmi,
        "wwt": lambda env, wq: _run_wwt(env, wq, DEFAULT_PARAMS, "table-centric"),
        "wwt-unsegmented": lambda env, wq: _run_wwt(
            env, wq, UNSEGMENTED_PARAMS, "table-centric"
        ),
        "wwt-none": lambda env, wq: _run_wwt(env, wq, DEFAULT_PARAMS, "none"),
        "wwt-alpha": lambda env, wq: _run_wwt(
            env, wq, DEFAULT_PARAMS, "alpha-expansion"
        ),
        "wwt-bp": lambda env, wq: _run_wwt(env, wq, DEFAULT_PARAMS, "bp"),
        "wwt-trws": lambda env, wq: _run_wwt(env, wq, DEFAULT_PARAMS, "trws"),
    }
    return table[name]


#: All runnable methods.
METHODS = (
    "basic", "nbrtext", "pmi2", "wwt", "wwt-unsegmented",
    "wwt-none", "wwt-alpha", "wwt-bp", "wwt-trws",
)


def run_method(
    env: WorkloadEnvironment,
    method: str,
    query_ids: Optional[Sequence[str]] = None,
) -> MethodRun:
    """Run one method over (a subset of) the workload."""
    fn = _method_fn(method)
    wanted = set(query_ids) if query_ids is not None else None
    labels: Dict[str, Dict[Tuple[int, int], int]] = {}
    errors: Dict[str, float] = {}
    for wq in env.queries:
        if wanted is not None and wq.query_id not in wanted:
            continue
        predicted = fn(env, wq)
        gold = env.gold(wq)
        labels[wq.query_id] = predicted
        errors[wq.query_id] = f1_error(
            predicted, gold, LabelSpace(wq.query.q)
        )
    return MethodRun(method=method, labels=labels, errors=errors)


def split_easy_hard(
    runs: Mapping[str, MethodRun],
    query_ids: Sequence[str],
    band: float = EASY_BAND,
) -> Tuple[List[str], List[str]]:
    """Partition queries: "easy" when all methods agree within ``band``."""
    easy: List[str] = []
    hard: List[str] = []
    for qid in query_ids:
        values = [run.errors[qid] for run in runs.values() if qid in run.errors]
        if values and (max(values) - min(values)) <= band:
            easy.append(qid)
        else:
            hard.append(qid)
    return easy, hard


def bin_queries(
    reference_errors: Mapping[str, float],
    query_ids: Sequence[str],
    num_groups: int = NUM_GROUPS,
) -> List[List[str]]:
    """Bin queries into groups by decreasing reference (Basic) error.

    Mirrors Figure 5's grouping: group 1 holds the hardest queries.
    """
    ordered = sorted(query_ids, key=lambda q: -reference_errors.get(q, 0.0))
    if not ordered:
        return [[] for _ in range(num_groups)]
    groups: List[List[str]] = [[] for _ in range(num_groups)]
    for i, qid in enumerate(ordered):
        groups[min(i * num_groups // len(ordered), num_groups - 1)].append(qid)
    return groups
