"""repro.engine — the vectorized batch execution layer.

The paper's headline results are statistics over many randomized
localization trials, but the reference solvers in :mod:`repro.core`
work one node (multilateration) or one configuration (LSS) at a time.
This subsystem provides the batched substrate those campaigns run on:

:mod:`repro.engine.batch`
    Stacked NumPy solvers.  Multilateration problems for a whole
    refinement round are packed into padded ``(n_problems, max_anchors,
    2)`` arrays with a validity mask and minimized in one vectorized
    adaptive-gradient-descent loop; LSS objective/gradient/descent
    kernels operate on ``(n_configs, n_nodes, 2)`` stacked
    configurations, so independent restarts or seeds advance in
    lockstep.  The ``*_padded`` variants stack *heterogeneous* LSS
    problems (per-problem node counts, edge lists, and constraint sets,
    padded with exact-zero slots) for the distributed pipeline.
:mod:`repro.engine.localmaps`
    The distributed-LSS local-map solver: every node's one-hop
    neighborhood problem of a refinement round advances through its
    perturbation-restart rounds in one stacked descent
    (:func:`solve_local_lss_stack`), the path
    ``repro.core.distributed`` routes through by default.
:mod:`repro.engine.campaign`
    The one seeded trial executor behind every campaign: each trial
    draws its own :class:`numpy.random.Generator` from child *i* of
    ``SeedSequence(master_seed)``, trials run inline or fan out over
    one ``multiprocessing`` pool, and records (and traced worker data)
    are committed in trial order, so results are reproducible
    bit-for-bit regardless of worker count.  It has three entry
    points: :func:`run_monte_carlo` runs a fixed-count campaign (the
    full index range), :func:`~repro.engine.sharding.run_campaign_shard`
    runs one contiguous index range of it, and
    :func:`~repro.engine.scheduler.run_adaptive` checks a
    confidence-interval stopping rule at chunk boundaries.
:mod:`repro.engine.scheduler`
    The adaptive entry point and its :class:`ConfidenceStop` rule; an
    early-stopped campaign's records are a bit-identical prefix of the
    same-seed fixed-count campaign.
:mod:`repro.engine.sharding`
    Shard planning (:func:`plan_shards`) and :func:`merge_shards`,
    which reassembles N shard results into the single-host campaign.

Batching layout
---------------
A batch of ``B`` multilateration problems with at most ``K`` anchors
each is four arrays: ``anchors (B, K, 2)``, ``distances (B, K)``,
``weights (B, K)`` and a boolean ``valid (B, K)`` mask.  Padded slots
carry zero weight, so they contribute exactly ``0.0`` to every
objective, gradient, and centroid computation — the padded problem is
numerically identical to the unpadded one.  Solved problems are
compacted out of the working arrays, so stragglers near the iteration
cap do not drag the whole batch's per-iteration cost with them.

Scalar/batched parity contract
------------------------------
For every batched kernel the per-problem update rule, acceptance test,
and termination condition are *the same operations in the same order*
as the scalar reference path (``repro.core.multilateration`` with
``solver="scalar"``; ``repro.core.lss`` with ``backend="gd-scalar"``;
``repro.core.distributed`` with ``solver="scalar"``).  Batched and
scalar runs from the same seed must therefore agree to floating-point
reduction tolerance; ``tests/test_engine_batch.py`` enforces this on
fixed-seed grid, random, and sparse networks.  The one deliberate
exception is the distributed pipeline's *multi-problem* orchestration:
its batched path phases residual-trim refits after all first fits
instead of interleaving them per map, so it consumes perturbation
randomness in a different order and agrees with the scalar loop to
solver tolerance instead (``tests/test_distributed.py``).  The scalar
paths stay in the tree precisely to keep these contracts testable.
"""

from .backend import (
    ARRAY_BACKEND_ENV_VAR,
    ArrayBackend,
    available_backends,
    default_backend_name,
    get_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from .batch import (
    batch_gradient_descent,
    batch_lss_descend,
    batch_lss_descend_padded,
    batch_lss_error,
    batch_lss_error_padded,
    batch_lss_gradient,
    batch_lss_gradient_padded,
    consistency_filter_fast,
    lss_localize_multistart,
    solve_multilateration_batch,
)
from .campaign import CampaignResult, TrialRecord, run_monte_carlo
from .localmaps import LocalLssProblem, LocalLssSolution, solve_local_lss_stack
from .scheduler import (
    ConfidenceStop,
    ScheduledCampaignResult,
    resolve_chunk_size,
    run_adaptive,
)
from .sharding import (
    ShardCampaignResult,
    ShardSpec,
    merge_shards,
    plan_shards,
    run_campaign_shard,
    shard_bounds,
)

__all__ = [
    "ARRAY_BACKEND_ENV_VAR",
    "ArrayBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
    "batch_gradient_descent",
    "batch_lss_descend",
    "batch_lss_descend_padded",
    "batch_lss_error",
    "batch_lss_error_padded",
    "batch_lss_gradient",
    "batch_lss_gradient_padded",
    "consistency_filter_fast",
    "lss_localize_multistart",
    "solve_multilateration_batch",
    "LocalLssProblem",
    "LocalLssSolution",
    "solve_local_lss_stack",
    "CampaignResult",
    "TrialRecord",
    "run_monte_carlo",
    "ConfidenceStop",
    "ScheduledCampaignResult",
    "resolve_chunk_size",
    "run_adaptive",
    "ShardSpec",
    "ShardCampaignResult",
    "plan_shards",
    "shard_bounds",
    "run_campaign_shard",
    "merge_shards",
]
