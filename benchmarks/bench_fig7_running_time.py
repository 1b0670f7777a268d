# reprolint: disable-file=R001 -- benchmark harness: measures real wall-clock latency by design; results are reports, not ranked answers
"""Figure 7: per-query running time broken into pipeline stages.

Regenerates the paper's Figure 7: for every query, total latency split into
1st index probe, 1st table read, 2nd index probe, 2nd table read, column
mapping and consolidation, with queries ordered by increasing total time.
The paper's corpus is six orders of magnitude larger (disk-resident Lucene
index), so absolute numbers differ; the *structure* — two index probes, the
column mapper a modest fraction of the total — is what the reproduction
shows.  Since the execution-engine refactor every slice is read off the
``repro.exec`` span tree (``QueryTiming`` is a view over it), the same
source ``benchmarks/bench_exec.py`` aggregates into per-stage p50/p95.  Also reproduces Section 5.1's method-cost comparison (Basic vs WWT
vs PMI²-augmented, where PMI² is several times slower) and measures the
serving layer's batch + cache throughput over the workload.
"""

import time

from repro.service import EngineConfig, WWTService

from .conftest import write_result

STAGES = ["1st Index", "1st Table Read", "2nd Index", "2nd Table Read",
          "Column Map", "Consolidate"]

#: Caches off: every answer reruns the full pipeline, so the per-stage
#: timings are those of Figure 7, not of a cache lookup.
UNCACHED = EngineConfig(cache_size=0, probe_cache_size=0)


def test_fig7_running_time(env, benchmark):
    service = WWTService(env.synthetic.corpus, UNCACHED)
    timings = []
    for wq in env.queries:
        response = service.answer(wq.query)
        timings.append(
            (response.timing.total, wq.query_id, response.timing.as_dict())
        )
    timings.sort()

    lines = [
        f"{'query (by increasing total time)':<44}"
        + "".join(f"{s:>16}" for s in STAGES)
        + f"{'total':>10}",
        "-" * (44 + 16 * len(STAGES) + 10),
    ]
    for total, qid, stages in timings:
        row = f"{qid[:42]:<44}"
        for stage in STAGES:
            row += f"{stages[stage] * 1000:>14.1f}ms"
        row += f"{total * 1000:>8.1f}ms"
        lines.append(row)
    average = sum(t for t, _q, _s in timings) / len(timings)
    lines.append("-" * 40)
    lines.append(
        f"average per-query time: {average * 1000:.1f}ms "
        "(paper: 6.7s on a 25M-table disk index; 1.5-14s range)"
    )
    write_result("fig7_running_time.txt", "\n".join(lines))

    assert timings[0][0] <= timings[-1][0]

    # Kernel: one full end-to-end query.
    wq = env.queries[0]
    benchmark(service.answer_full, wq.query, use_cache=False)


def test_fig7_batch_cache_throughput(env, benchmark):
    """Serving-layer counterpart of Figure 7: batch fan-out + LRU cache.

    Answers the whole workload cold through ``answer_batch``, then again
    warm, and reports the cache-driven speedup — the serving behaviour the
    paper's latency numbers motivate.
    """
    service = WWTService(
        env.synthetic.corpus,
        EngineConfig(cache_size=256, probe_cache_size=256, max_workers=4),
    )
    queries = [wq.query for wq in env.queries]

    start = time.perf_counter()
    cold = service.answer_batch(queries)
    cold_time = time.perf_counter() - start

    start = time.perf_counter()
    warm = service.answer_batch(queries)
    warm_time = time.perf_counter() - start

    stats = service.stats()
    text = (
        f"batch of {len(queries)} workload queries (4 workers):\n"
        f"  cold: {cold_time * 1000:8.1f}ms "
        f"({cold_time / len(queries) * 1000:.1f}ms/query)\n"
        f"  warm: {warm_time * 1000:8.1f}ms "
        f"({warm_time / len(queries) * 1000:.1f}ms/query)\n"
        f"  speedup: {cold_time / max(warm_time, 1e-9):.1f}x\n"
        f"  result cache: {stats.result_cache.hits} hits / "
        f"{stats.result_cache.misses} misses "
        f"({stats.result_cache.hit_rate:.0%} hit rate)"
    )
    write_result("fig7_batch_cache_throughput.txt", text)

    assert all(not r.cache_hit for r in cold)
    assert all(r.cache_hit for r in warm)
    assert stats.result_cache.hits >= len(queries)
    assert warm_time < cold_time

    # Kernel: one fully-cached answer (the serving hot path).
    benchmark(service.answer, queries[0])


def test_fig7_method_cost_comparison(env, benchmark):
    """Section 5.1: average per-query cost of Basic vs WWT vs PMI²."""
    from repro.baselines.basic import basic_method
    from repro.baselines.pmi_baseline import pmi_method
    from repro.core.model import build_problem
    from repro.core.params import DEFAULT_PARAMS
    from repro.inference import table_centric_inference

    stats = env.synthetic.corpus.stats
    corpus = env.synthetic.corpus
    sample = env.queries[::6]  # every 6th query keeps this test quick

    def time_method(fn):
        start = time.perf_counter()
        for wq in sample:
            fn(wq)
        return (time.perf_counter() - start) / len(sample)

    t_basic = time_method(
        lambda wq: basic_method(wq.query, env.candidates[wq.query_id].tables, stats)
    )
    t_wwt = time_method(
        lambda wq: table_centric_inference(
            build_problem(
                wq.query, env.candidates[wq.query_id].tables, stats, DEFAULT_PARAMS
            )
        )
    )
    t_pmi = time_method(
        lambda wq: pmi_method(
            wq.query, env.candidates[wq.query_id].tables, corpus, stats
        )
    )
    text = (
        f"average per-query cost (sample of {len(sample)} queries):\n"
        f"  Basic: {t_basic * 1000:8.1f}ms   (paper: 6.3s)\n"
        f"  WWT:   {t_wwt * 1000:8.1f}ms   (paper: 6.7s)\n"
        f"  PMI2:  {t_pmi * 1000:8.1f}ms   (paper: 40s)\n"
        f"PMI2/Basic cost ratio: {t_pmi / max(t_basic, 1e-9):.1f}x "
        f"(paper: ~6.3x)"
    )
    write_result("fig7_method_cost.txt", text)
    assert t_pmi > t_basic  # PMI² must be the expensive method

    # Kernel: the cheap method, for the comparison table's baseline row.
    wq = sample[0]
    benchmark(
        basic_method, wq.query, env.candidates[wq.query_id].tables, stats
    )
