"""repro — a reproduction of *Containment of Conjunctive Object Meta-Queries*
(Andrea Calì and Michael Kifer, VLDB 2006).

The library implements, from scratch:

* the **P_FL encoding** of F-logic Lite and the twelve-rule constraint set
  **Sigma_FL** (:mod:`repro.dependencies`);
* a generic **Datalog engine** (:mod:`repro.datalog`);
* the **chase** of Definition 2 with level accounting, chase graphs,
  primary paths and the excision lemmas (:mod:`repro.chase`);
* **query containment** under Sigma_FL via the Theorem-12 bounded chase,
  plus the classic Chandra–Merlin baseline (:mod:`repro.containment`);
* an **F-logic Lite language front end** — parser, encoder, knowledge base
  (:mod:`repro.flogic`) — and an **RDF/SPARQL-style bridge**
  (:mod:`repro.rdf`);
* workload generators, analysis tools and the experiment harness used by
  ``benchmarks/`` (:mod:`repro.workloads`, :mod:`repro.analysis`,
  :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import Variable, type_, sub, ConjunctiveQuery, is_contained
>>> T1, T2, T3, A, B, X = (Variable(n) for n in "T1 T2 T3 A B X".split())
>>> q = ConjunctiveQuery("q", (A, B), (type_(T1, A, T2), sub(T2, T3), type_(T3, B, X)))
>>> qq = ConjunctiveQuery("qq", (A, B), (type_(T1, A, T2), type_(T2, B, X)))
>>> bool(is_contained(q, qq))          # the paper's Section-1 example
True
"""

from .chase import (
    ChaseConfig,
    ChaseEngine,
    ChaseGraph,
    ChaseInstance,
    ChaseResult,
    chase,
)
from .containment.bounded import ContainmentChecker, is_contained, theorem12_bound
from .containment.classic import contained_classic
from .containment.minimize import MinimizationResult, minimize_query
from .containment.result import ContainmentReason, ContainmentResult, Decision
from .containment.store import ChaseStore, StoreStats
from .core import (
    AdmissionRejected,
    Atom,
    BudgetExceeded,
    ChaseBudgetExceeded,
    ExecutionCancelled,
    ExecutionInterrupted,
    ChaseFailure,
    ConjunctiveQuery,
    Constant,
    Null,
    ParseError,
    QueryError,
    ReproError,
    Substitution,
    Term,
    Variable,
    data,
    funct,
    mandatory,
    member,
    sub,
    type_,
)
from .dependencies import SIGMA_FL, SIGMA_FL_MINUS, rule_by_label
from .governance import (
    BudgetReport,
    CancelScope,
    ExecutionBudget,
    Fault,
    FaultInjector,
    Governor,
)
from .obs import (
    ContainmentProvenance,
    MetricsRegistry,
    Observability,
    Tracer,
)

from .store import RunSnapshot, SnapshotStore, StoreConfig

# The stable facade (imported last: it builds on everything above).
from .api import Engine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Term",
    "Constant",
    "Variable",
    "Null",
    "Atom",
    "Substitution",
    "ConjunctiveQuery",
    "member",
    "sub",
    "data",
    "type_",
    "mandatory",
    "funct",
    # dependencies
    "SIGMA_FL",
    "SIGMA_FL_MINUS",
    "rule_by_label",
    # chase
    "chase",
    "ChaseEngine",
    "ChaseConfig",
    "ChaseResult",
    "ChaseInstance",
    "ChaseGraph",
    # containment
    "is_contained",
    "ContainmentChecker",
    "theorem12_bound",
    "contained_classic",
    "ContainmentResult",
    "ContainmentReason",
    "Decision",
    "ChaseStore",
    "StoreStats",
    "minimize_query",
    "MinimizationResult",
    # storage
    "StoreConfig",
    "SnapshotStore",
    "RunSnapshot",
    # facade
    "Engine",
    # governance
    "ExecutionBudget",
    "BudgetReport",
    "CancelScope",
    "Governor",
    "Fault",
    "FaultInjector",
    # observability
    "Observability",
    "Tracer",
    "MetricsRegistry",
    "ContainmentProvenance",
    # errors
    "ReproError",
    "QueryError",
    "ParseError",
    "AdmissionRejected",
    "ChaseFailure",
    "ChaseBudgetExceeded",
    "BudgetExceeded",
    "ExecutionCancelled",
    "ExecutionInterrupted",
]
