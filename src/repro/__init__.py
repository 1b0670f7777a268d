"""repro — reproduction of "Answering Table Queries on the Web using Column
Keywords" (Pimplikar & Sarawagi, PVLDB 5(10), 2012): the WWT structured
web-table search engine.

Quickstart::

    from repro import CorpusConfig, WWTService, generate_corpus

    synthetic = generate_corpus(CorpusConfig(scale=0.3))
    service = WWTService(synthetic.corpus)
    response = service.answer("country | currency")
    for row in response.rows[:5]:
        print(row.cells)
    print(service.stats().to_dict())

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.html`, :mod:`repro.tables`, :mod:`repro.text` — offline
  extraction substrate (Section 2.1);
- :mod:`repro.index` — Lucene-style fielded index + table store behind
  one sharded, persistent backend (:class:`ShardedCorpus`,
  :func:`load_corpus`) that serves :class:`CorpusProtocol`;
- :mod:`repro.corpus` — the synthetic web crawl substitute;
- :mod:`repro.query` — column-keyword queries + the 59-query workload;
- :mod:`repro.core` — the graphical model (SegSim, PMI², potentials);
- :mod:`repro.flow`, :mod:`repro.inference` — Section 4's algorithms;
  :data:`REGISTRY` is the fixed name -> function table of Table 2's
  five solvers;
- :mod:`repro.baselines` — Basic / NbrText / PMI²;
- :mod:`repro.pipeline`, :mod:`repro.consolidate` — the query pipeline;
- :mod:`repro.service` — the serving facade (:class:`WWTService`,
  :class:`EngineConfig`, caching, batching);
- :mod:`repro.serve` — the HTTP/JSON front door over the facade
  (:class:`ReproServer`, :class:`ServeConfig`, admission control,
  SLO-driven degradation — ``python -m repro serve``);
- :mod:`repro.evaluation` — F1 error and the experiment harness.
"""

from .consolidate import AnswerRow, AnswerTable
from .core import DEFAULT_PARAMS, FeatureCache, ModelParams, build_problem
from .corpus import CorpusConfig, GroundTruth, generate_corpus, iter_tables
from .evaluation import build_environment, f1_error, run_method
from .exec import ExecutionContext, ExecutionPlan, Span, Stage
from .index import (
    CorpusProtocol,
    ShardedCorpus,
    build_corpus_index,
    build_sharded_corpus,
    load_corpus,
)
from .inference import (
    REGISTRY,
    MappingResult,
    UnknownAlgorithmError,
    get_algorithm,
)
from .pipeline import ProbeConfig, WWTAnswer
from .query import WORKLOAD, Query
from .serve import ReproServer, ServeClient, ServeConfig
from .service import (
    EngineConfig,
    QueryRequest,
    QueryResponse,
    ServiceStats,
    WWTService,
)

__version__ = "1.5.0"

__all__ = [
    "AnswerRow",
    "AnswerTable",
    "CorpusConfig",
    "CorpusProtocol",
    "DEFAULT_PARAMS",
    "EngineConfig",
    "ExecutionContext",
    "ExecutionPlan",
    "FeatureCache",
    "GroundTruth",
    "MappingResult",
    "ModelParams",
    "ProbeConfig",
    "Query",
    "QueryRequest",
    "QueryResponse",
    "REGISTRY",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServiceStats",
    "ShardedCorpus",
    "Span",
    "Stage",
    "UnknownAlgorithmError",
    "WORKLOAD",
    "WWTAnswer",
    "WWTService",
    "__version__",
    "build_corpus_index",
    "build_environment",
    "build_problem",
    "build_sharded_corpus",
    "f1_error",
    "generate_corpus",
    "get_algorithm",
    "iter_tables",
    "load_corpus",
    "run_method",
]
