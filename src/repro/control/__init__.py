"""Batch control plane: sharded, crash-resumable execution at sweep scale.

The core gives one session a digestible boundary record
(:meth:`~repro.core.lifecycle.WorkloadSession.record`); this package turns
that into an operational capability: submit thousands of deterministic
:class:`JobSpec`\\ s into a file-backed :class:`JobsDB`,
shard them across a ``multiprocessing`` worker pool with
:func:`batch_execute`, survive worker SIGKILLs via journaled boundary
digests and replay-verified re-queue, and settle the batch into a
manifest whose ``batch_digest`` witnesses byte-identical settlement
against a single-process baseline.
"""

from repro.control.batch import (
    BatchReport,
    batch_digest_of,
    batch_execute,
    submit_batch,
)
from repro.control.jobs import (
    JOB_ERROR,
    JOB_FAILED,
    JOB_OUTCOMES,
    JOB_SETTLED,
    JOB_SETTLED_DEGRADED,
    JobResult,
    JobSpec,
)
from repro.control.jobs_db import (
    BATCH_DONE,
    BATCH_FAILED,
    BATCH_PARTIAL_FAILED,
    BATCH_PENDING,
    BATCH_RUNNING,
    BATCH_STATES,
    MANIFEST_FORMAT,
    TERMINAL_BATCH_STATES,
    JobsDB,
    JournalShard,
)
from repro.control.supervisor import (
    BoundaryRecorder,
    JobContext,
    build_ml_market,
    run_job,
)
from repro.control.trace_ops import (
    OpsSnapshot,
    assemble_batch_trace,
    ops_snapshot,
    render_top,
)

__all__ = [
    "BatchReport",
    "batch_digest_of",
    "batch_execute",
    "submit_batch",
    "JOB_ERROR",
    "JOB_FAILED",
    "JOB_OUTCOMES",
    "JOB_SETTLED",
    "JOB_SETTLED_DEGRADED",
    "JobResult",
    "JobSpec",
    "BATCH_DONE",
    "BATCH_FAILED",
    "BATCH_PARTIAL_FAILED",
    "BATCH_PENDING",
    "BATCH_RUNNING",
    "BATCH_STATES",
    "MANIFEST_FORMAT",
    "TERMINAL_BATCH_STATES",
    "JobsDB",
    "JournalShard",
    "BoundaryRecorder",
    "JobContext",
    "build_ml_market",
    "run_job",
    "OpsSnapshot",
    "assemble_batch_trace",
    "ops_snapshot",
    "render_top",
]
