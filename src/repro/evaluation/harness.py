"""Experiment harness: run every method over the 59-query workload.

Builds the synthetic corpus and answers each query once through the served
engine (:class:`~repro.service.WWTService`, caches off), keeping the
answer's candidate set and labeling problem.  Every method runs over those
candidates (shared by all methods, as in the paper); WWT, Table 2's solvers
and the edge ablations re-solve that problem, and only Fig. 8's unsegmented
run builds its own, over the same candidates.  Each method's column mapping
is evaluated against ground truth with the F1 error of Section 5, and the
easy/hard split and the 7-group binning of Figures 5-6 and Table 2 are
supported.
``tests/test_reproduction.py`` pins what this module computes at full scale
against ``tests/reproduction.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..baselines.basic import BasicParams, basic_method
from ..baselines.nbrtext import nbrtext_method
from ..baselines.pmi_baseline import pmi_method
from ..core.edges import MappingEdge, all_similar_pairs
from ..core.features import BoundedCache
from ..core.labels import LabelSpace
from ..core.model import ColumnMappingProblem, build_problem
from ..core.params import UNSEGMENTED_PARAMS
from ..corpus.generator import CorpusConfig, SyntheticCorpus, generate_corpus
from ..corpus.groundtruth import GroundTruth
from ..inference import get_algorithm, table_centric_inference
from ..pipeline.probe import ProbeResult
from ..query.workload import WORKLOAD, WorkloadQuery
from ..service import EngineConfig, WWTService
from .answer_quality import answer_row_error
from .metrics import f1_error, gold_assignment

__all__ = [
    "WorkloadEnvironment",
    "MethodRun",
    "build_environment",
    "run_method",
    "METHODS",
    "split_easy_hard",
    "bin_queries",
    "answer_row_errors",
    "probe_statistics",
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
    #: query_id -> the served answer's candidate set.
    candidates: Dict[str, ProbeResult]
    #: query_id -> the served answer's labeling problem (default weights).
    problems: Dict[str, ColumnMappingProblem]
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
    queries: Optional[Sequence[WorkloadQuery]] = None,
    use_cache: bool = True,
) -> WorkloadEnvironment:
    """Generate the corpus and ground truth, and answer every query once.

    Each query's candidates and problem are what
    :meth:`~repro.service.WWTService.answer_full` serves, so a method
    evaluated here is evaluated on the system that answers the queries.
    """
    cache_key = (scale, seed)
    if use_cache and queries is None:
        cached_env = _ENV_CACHE.get(cache_key)
        if cached_env is not None:
            return cached_env

    synthetic = generate_corpus(CorpusConfig(seed=seed, scale=scale))
    workload = list(queries) if queries is not None else list(WORKLOAD)
    bindings = {wq.query_id: (wq.domain_key, wq.attr_keys) for wq in workload}
    truth = GroundTruth.from_provenance(synthetic.provenance, bindings)

    service = WWTService(synthetic.corpus, EngineConfig(cache_size=0))
    candidates: Dict[str, ProbeResult] = {}
    problems: Dict[str, ColumnMappingProblem] = {}
    for wq in workload:
        full = service.answer_full(wq.query)
        candidates[wq.query_id] = full.probe
        problems[wq.query_id] = full.problem

    env = WorkloadEnvironment(
        synthetic=synthetic, truth=truth, candidates=candidates,
        problems=problems, queries=workload,
    )
    if use_cache and queries is None:
        _ENV_CACHE.put(cache_key, env)
    return env


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class MethodRun:
    """One method's labelings and errors over the workload."""

    method: str
    labels: Dict[str, Dict[Tuple[int, int], int]]  # query_id -> labeling
    errors: Dict[str, float]  # query_id -> F1 error (percent)

    def mean_error(self, query_ids: Optional[Sequence[str]] = None) -> float:
        """Average error over a subset (default: all queries)."""
        ids = query_ids if query_ids is not None else list(self.errors)
        return _mean([self.errors[q] for q in ids])


def _solve(inference: str) -> MethodFn:
    """Re-solve the served problem with one of Table 2's algorithms."""
    algorithm = get_algorithm(inference)
    return lambda env, wq: algorithm(env.problems[wq.query_id]).labels


def _unsegmented(env: WorkloadEnvironment, wq: WorkloadQuery) -> Labels:
    """Fig. 8: the served candidates under unsegmented header features."""
    problem = build_problem(
        wq.query,
        env.candidates[wq.query_id].tables,
        env.synthetic.corpus.stats,
        UNSEGMENTED_PARAMS,
    )
    return table_centric_inference(problem).labels


def _raw_edges(
    problem: ColumnMappingProblem,
    triples: Iterable[Tuple[Tuple[int, int], Tuple[int, int], float]],
) -> ColumnMappingProblem:
    """``problem`` over ``(a, b, sim)`` edges with raw ``sim`` as nsim."""
    return ColumnMappingProblem(
        query=problem.query,
        tables=problem.tables,
        params=problem.params,
        node_potentials=problem.node_potentials,
        features=problem.features,
        table_relevance=problem.table_relevance,
        edges=[
            MappingEdge(a=a, b=b, sim=sim, nsim_ab=sim, nsim_ba=sim)
            for a, b, sim in triples
        ],
    )


#: Section 3.3's edge design with one protection removed: no collective
#: inference at all, every column may send (confidence threshold 0), raw
#: similarity in place of nsim, every similar pair in place of the
#: max-matching.
_EDGE_ABLATIONS: Dict[
    str,
    Callable[[WorkloadEnvironment, ColumnMappingProblem], ColumnMappingProblem],
] = {
    "wwt-no-edges": lambda env, p: p.with_params(p.params.with_values(we=0.0)),
    "wwt-no-gating": lambda env, p: p.with_params(
        p.params.with_values(confidence_threshold=0.0)
    ),
    "wwt-unnormalized": lambda env, p: _raw_edges(
        p, ((e.a, e.b, e.sim) for e in p.edges)
    ),
    "wwt-all-pairs": lambda env, p: _raw_edges(
        p, all_similar_pairs(p.tables, env.synthetic.corpus.stats)
    ),
}


def _method_fn(name: str) -> MethodFn:
    if name in _EDGE_ABLATIONS:
        ablate = _EDGE_ABLATIONS[name]
        return lambda env, wq: table_centric_inference(
            ablate(env, env.problems[wq.query_id])
        ).labels
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
        "wwt": _solve("table-centric"),
        "wwt-unsegmented": _unsegmented,
        "wwt-none": _solve("none"),
        "wwt-alpha": _solve("alpha-expansion"),
        "wwt-bp": _solve("bp"),
        "wwt-trws": _solve("trws"),
    }
    return table[name]


#: All runnable methods.
METHODS = (
    "basic", "nbrtext", "pmi2", "wwt", "wwt-unsegmented",
    "wwt-none", "wwt-alpha", "wwt-bp", "wwt-trws", *_EDGE_ABLATIONS,
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


def answer_row_errors(
    env: WorkloadEnvironment, run: MethodRun, query_ids: Sequence[str]
) -> Dict[str, float]:
    """Figure 6: error in the consolidated answer's rows, per query.

    The answer consolidated from ``run``'s mapping against the one
    consolidated from the gold mapping, over the same candidate tables.
    """
    wanted = set(query_ids)
    return {
        wq.query_id: answer_row_error(
            wq.query,
            env.candidates[wq.query_id].tables,
            run.labels[wq.query_id],
            env.gold(wq),
        )
        for wq in env.queries
        if wq.query_id in wanted
    }


def probe_statistics(env: WorkloadEnvironment) -> Dict[str, float]:
    """Table 1 and Section 2.2.1: what the two-stage probe retrieved.

    Counts over the workload — candidates and relevant candidates per
    stage, queries whose second probe fired — plus the mean per-query
    relevant fraction (percent, over queries with candidates) and the
    mean recall of relevant tables (percent, over queries that have any)
    with and without the second stage.
    """
    fired = tot1 = rel1 = tot2 = rel2 = candidates = 0
    fractions: List[float] = []
    recall_one: List[float] = []
    recall_two: List[float] = []
    for wq in env.queries:
        probe = env.candidates[wq.query_id]
        relevant = set(env.truth.relevant_tables(wq.query_id))
        found1 = len(relevant.intersection(probe.stage1_ids))
        found2 = len(relevant.intersection(probe.stage2_ids))
        found = sum(1 for t in probe.tables if t.table_id in relevant)
        fired += probe.used_second_stage
        tot1 += len(probe.stage1_ids)
        tot2 += len(probe.stage2_ids)
        rel1 += found1
        rel2 += found2
        candidates += probe.num_candidates
        if probe.num_candidates:
            fractions.append(100.0 * found / probe.num_candidates)
        if relevant:
            recall_one.append(100.0 * found1 / len(relevant))
            recall_two.append(100.0 * found / len(relevant))
    return {
        "queries": len(env.queries),
        "candidates": candidates,
        "mean_relevant_fraction": _mean(fractions),
        "second_probe_fired": fired,
        "stage1_candidates": tot1,
        "stage1_relevant": rel1,
        "stage2_candidates": tot2,
        "stage2_relevant": rel2,
        "recall_one_stage": _mean(recall_one),
        "recall_two_stage": _mean(recall_two),
    }
