"""Cross-backend differential harness for the engine's ``xp`` seam.

Two complementary locks on :mod:`repro.engine.backend`:

1. **Byte identity** — the default ``"numpy"`` backend must take the
   exact pre-seam code path.  Every public kernel's output on the
   seeded fixture stacks (``tests/_backend_fixtures.py``) is hashed and
   compared against SHA-256 pins frozen *before* the seam landed; any
   drift in the native path, however small, fails here.
2. **Tolerance parity** — every other available backend (the always-on
   ``numpy-generic`` twin locally; ``array-api-strict`` / ``cupy`` /
   ``jax`` when importable) must agree with the native path to
   floating-point reduction tolerance, with identical boolean
   decisions (solved/converged masks, argmin selections).

Backends whose library is not installed are *skipped*, never failed —
the harness degrades to the numpy/numpy-generic pair on a bare machine.

One deliberate exception: transform problems with exactly two
correspondences are degenerate — the rotation and reflection branches
reach the *same* residual error, and the strict ``<`` tie-break winner
flips with summation order.  Those problems are compared by error and
by the transform's action on the valid points, not by matrix bytes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _backend_fixtures import (
    local_lss_config,
    local_map_stack,
    multilateration_problems,
    padded_problem_stack,
    shared_edge_problem,
    sha256_bytes,
    transform_stacks,
)
from repro.core.measurements import EdgeList
from repro.core.transforms import (
    estimate_transform_minimize,
    estimate_transforms_closed_form_batch,
    estimate_transforms_minimize_batch,
)
from repro.engine import (
    available_backends,
    batch_lss_descend,
    batch_lss_descend_padded,
    batch_lss_error,
    batch_lss_error_padded,
    batch_lss_gradient,
    batch_lss_gradient_padded,
    get_backend,
    solve_local_lss_stack,
    solve_multilateration_batch,
    use_backend,
)
from repro.engine import lss_localize_multistart
from repro.engine.localmaps import LocalLssProblem
from repro.errors import ValidationError

#: Pre-seam SHA-256 pins of every public kernel's output on the seeded
#: fixture stacks.  Frozen from the commit before the backend seam was
#: introduced; the native numpy path must reproduce them byte-for-byte.
GOLDEN_PINS = {
    "solve_multilateration_batch": "dc6ac928c2665b073a5cbcbda3b3669bff8aa0d83acaf9c4e98b2b20cb179410",
    "batch_lss_error": "0d60c673a5fa6682b060bdbbb9bd10b239ea58d60a7e5b9bb2c42161e211b23c",
    "batch_lss_gradient": "5a59e8d691bcaa653d5778752a1334903f10c39ba88a808428db28986cb08af8",
    "batch_lss_descend": "bca7202ccac7fc6b027646e3145f9b56ca28c02a92e09884d4b121040bebaa40",
    # Frozen later, on the commit before the descents began computing
    # pair geometry once per epoch (the entries above cover no
    # constraint pruning or mixed accept/reject row selection).
    "batch_lss_descend_constrained": "e7224951c042d54109fc957dbf39c7b69d8c7271214b2d22632503f438ff1765",
    "batch_lss_error_padded": "64911a43bd5f65ff91b76b64a33d46faa5fa0384a66d6514e047f18c93ae1dd6",
    "batch_lss_gradient_padded": "69df36262dc245c209a3cb583c8ecd808e85b80b396be6b22b7fe698da2fc027",
    "batch_lss_descend_padded": "2217390fc11f4d46e35c0086ae817c108ce1312f8791733e55794ecff1e8156c",
    "solve_local_lss_stack": "a9fdead66118b355d4043e8287bf8feb62c90ae06c6c2c31ba6c199f348451d1",
    "estimate_transforms_closed_form_batch": "0fa251e18f70e9d6de1c7a0da5dd1e666cec96266586c0c436005c23a49eb6e5",
}

_AVAILABLE = available_backends()

#: Every non-native backend, present ones as live params and absent
#: optional ones as clean skips (the harness must *say* it skipped
#: cupy/jax, not silently shrink).
ALT_BACKENDS = [
    pytest.param(name)
    if name in _AVAILABLE
    else pytest.param(name, marks=pytest.mark.skip(reason=f"{name} not installed"))
    for name in ("numpy-generic", "array-api-strict", "cupy", "jax")
]


# -- fixture invocations (shared verbatim by pins and parity) ----------


def _run_multilateration(backend=None):
    anchors, dists, weights = multilateration_problems()
    return solve_multilateration_batch(anchors, dists, weights, backend=backend)


def _run_shared_edge(backend=None):
    edges, configs, free_mask = shared_edge_problem()
    error = batch_lss_error(configs, edges, backend=backend)
    grad = batch_lss_gradient(configs, edges, backend=backend)
    pts, err, conv = batch_lss_descend(
        configs,
        edges,
        None,
        min_spacing_m=None,
        constraint_weight=10.0,
        step_size=0.02,
        max_epochs=200,
        tolerance=1e-7,
        free_mask=free_mask,
        backend=backend,
    )
    return error, grad, pts, err, conv


def _run_shared_edge_constrained(backend=None):
    """The shared fixture with every unmeasured pair under the
    min-spacing constraint: mixes violated and slack pairs, and epochs
    where some configurations accept their step while others reject it
    (node 0 stays pinned).  Returns the descent plus its error traces."""
    edges, configs, free_mask = shared_edge_problem()
    n_nodes = configs.shape[1]
    measured = set(map(tuple, edges.pairs.tolist()))
    constraint_pairs = np.array(
        [
            (i, j)
            for i in range(n_nodes)
            for j in range(i + 1, n_nodes)
            if (i, j) not in measured
        ],
        dtype=np.int64,
    )
    traces = [[] for _ in range(configs.shape[0])]
    pts, err, conv = batch_lss_descend(
        configs,
        edges,
        constraint_pairs,
        min_spacing_m=5.0,
        constraint_weight=10.0,
        step_size=0.02,
        max_epochs=200,
        tolerance=1e-7,
        free_mask=free_mask,
        traces=traces,
        backend=backend,
    )
    return pts, err, conv, np.concatenate([np.asarray(t) for t in traces])


def _run_padded(backend=None):
    problem = padded_problem_stack()
    stacks = (problem["configs"], problem["pairs"], problem["dists"], problem["weights"])
    kwargs = dict(
        constraint_pairs=problem["constraint_pairs"],
        constraint_valid=problem["constraint_valid"],
        min_spacing_m=problem["min_spacing_m"],
    )
    error = batch_lss_error_padded(*stacks, backend=backend, **kwargs)
    grad = batch_lss_gradient_padded(*stacks, backend=backend, **kwargs)
    pts, err, conv = batch_lss_descend_padded(
        *stacks,
        step_size=0.02,
        max_epochs=200,
        tolerance=1e-7,
        backend=backend,
        **kwargs,
    )
    return error, grad, pts, err, conv


def _local_problems():
    return [
        LocalLssProblem(
            n_nodes=p["n_nodes"],
            edges=EdgeList(
                pairs=p["pairs"], distances=p["distances"], weights=p["weights"]
            ),
            initial=p["initial"],
        )
        for p in local_map_stack()
    ]


def _run_localmaps(backend=None):
    return solve_local_lss_stack(
        _local_problems(),
        config=local_lss_config(),
        rng=np.random.default_rng(7),
        backend=backend,
    )


def _localmaps_hash(solutions) -> str:
    return sha256_bytes(
        np.concatenate([s.positions.ravel() for s in solutions]),
        np.array([s.error for s in solutions]),
        np.array([s.stress for s in solutions]),
        np.array([s.converged for s in solutions]),
    )


def _transform_action(estimate, source, valid_row):
    """Valid source points mapped through the homogeneous estimate."""
    pts = source[valid_row]
    return pts @ estimate.matrix[:2, :2] + estimate.matrix[2, :2]


# -- byte identity: numpy is the pre-seam path -------------------------


class TestGoldenPins:
    """The native path must reproduce the pre-seam bytes, both when the
    backend is left to default resolution and when named explicitly."""

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_multilateration_pin(self, backend):
        pos, solved, residuals = _run_multilateration(backend)
        assert (
            sha256_bytes(pos, solved, residuals)
            == GOLDEN_PINS["solve_multilateration_batch"]
        )

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_shared_edge_pins(self, backend):
        error, grad, pts, err, conv = _run_shared_edge(backend)
        assert sha256_bytes(error) == GOLDEN_PINS["batch_lss_error"]
        assert sha256_bytes(grad) == GOLDEN_PINS["batch_lss_gradient"]
        assert sha256_bytes(pts, err, conv) == GOLDEN_PINS["batch_lss_descend"]

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_constrained_descent_pin(self, backend):
        assert (
            sha256_bytes(*_run_shared_edge_constrained(backend))
            == GOLDEN_PINS["batch_lss_descend_constrained"]
        )

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_padded_pins(self, backend):
        error, grad, pts, err, conv = _run_padded(backend)
        assert sha256_bytes(error) == GOLDEN_PINS["batch_lss_error_padded"]
        assert sha256_bytes(grad) == GOLDEN_PINS["batch_lss_gradient_padded"]
        assert sha256_bytes(pts, err, conv) == GOLDEN_PINS["batch_lss_descend_padded"]

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_localmaps_pin(self, backend):
        assert (
            _localmaps_hash(_run_localmaps(backend))
            == GOLDEN_PINS["solve_local_lss_stack"]
        )

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_transforms_pin(self, backend):
        sources, targets, valid = transform_stacks()
        estimates = estimate_transforms_closed_form_batch(
            sources, targets, valid, backend=backend
        )
        digest = sha256_bytes(
            np.stack([e.matrix for e in estimates]),
            np.array([e.error for e in estimates]),
        )
        assert digest == GOLDEN_PINS["estimate_transforms_closed_form_batch"]

    def test_use_backend_scope_is_still_byte_exact(self):
        with use_backend("numpy"):
            pos, solved, residuals = _run_multilateration(None)
        assert (
            sha256_bytes(pos, solved, residuals)
            == GOLDEN_PINS["solve_multilateration_batch"]
        )


# -- tolerance parity: every other backend vs the native path ----------


@pytest.mark.parametrize("name", ALT_BACKENDS)
class TestBackendParity:
    def test_multilateration(self, name):
        ref_pos, ref_solved, ref_res = _run_multilateration("numpy")
        pos, solved, res = _run_multilateration(name)
        # The solved decision must be identical, not merely close.
        np.testing.assert_array_equal(solved, ref_solved)
        # The native straggler fast-path finishes near-converged
        # problems with a slightly different scalar reduction order, so
        # positions agree to descent tolerance, residuals tightly.
        np.testing.assert_allclose(pos, ref_pos, atol=1e-6)
        np.testing.assert_allclose(res, ref_res, atol=1e-9)

    def test_shared_edge_kernels(self, name):
        ref = _run_shared_edge("numpy")
        out = _run_shared_edge(name)
        np.testing.assert_allclose(out[0], ref[0], rtol=1e-12, atol=1e-12)  # error
        np.testing.assert_allclose(out[1], ref[1], rtol=1e-12, atol=1e-12)  # gradient
        np.testing.assert_allclose(out[2], ref[2], atol=1e-9)  # descent points
        np.testing.assert_allclose(out[3], ref[3], rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(out[4], ref[4])  # converged mask

    def test_padded_kernels(self, name):
        ref = _run_padded("numpy")
        out = _run_padded(name)
        np.testing.assert_allclose(out[0], ref[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out[1], ref[1], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out[2], ref[2], atol=1e-9)
        np.testing.assert_allclose(out[3], ref[3], rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(out[4], ref[4])

    def test_localmaps(self, name):
        ref = _run_localmaps("numpy")
        out = _run_localmaps(name)
        assert [s.converged for s in out] == [s.converged for s in ref]
        for sol, ref_sol in zip(out, ref):
            np.testing.assert_allclose(sol.positions, ref_sol.positions, atol=1e-9)
            assert sol.error == pytest.approx(ref_sol.error, rel=1e-9, abs=1e-12)
            assert sol.stress == pytest.approx(ref_sol.stress, rel=1e-9, abs=1e-12)

    def test_transforms_closed_form(self, name):
        sources, targets, valid = transform_stacks()
        ref = estimate_transforms_closed_form_batch(
            sources, targets, valid, backend="numpy"
        )
        out = estimate_transforms_closed_form_batch(
            sources, targets, valid, backend=name
        )
        for p, (est, ref_est) in enumerate(zip(out, ref)):
            assert est.error == pytest.approx(ref_est.error, rel=1e-9, abs=1e-12)
            n_valid = int(valid[p].sum())
            if n_valid >= 3:
                np.testing.assert_allclose(est.matrix, ref_est.matrix, atol=1e-9)
            else:
                # n=2 is the degenerate branch tie (module docstring):
                # compare the transforms' action on the valid points.
                np.testing.assert_allclose(
                    _transform_action(est, sources[p], valid[p]),
                    _transform_action(ref_est, sources[p], valid[p]),
                    atol=1e-6,
                )

    def test_transforms_minimize(self, name):
        sources, targets, valid = transform_stacks()
        out = estimate_transforms_minimize_batch(
            sources, targets, valid, backend=name
        )
        ref = estimate_transforms_minimize_batch(
            sources, targets, valid, backend="numpy"
        )
        for est, ref_est in zip(out, ref):
            assert est.error == pytest.approx(ref_est.error, rel=1e-9, abs=1e-12)


class TestMinimizeBatchMatchesScalar:
    """The batched analytic-argmin minimizer must agree with the scalar
    Nelder-Mead path it replaces (the per-pair ``scipy.optimize`` call),
    on every backend."""

    @pytest.mark.parametrize(
        "name", [pytest.param("numpy"), *ALT_BACKENDS]
    )
    def test_against_scalar_minimize(self, name):
        sources, targets, valid = transform_stacks()
        batch = estimate_transforms_minimize_batch(
            sources, targets, valid, backend=name
        )
        for p, est in enumerate(batch):
            pts = valid[p]
            scalar = estimate_transform_minimize(sources[p][pts], targets[p][pts])
            assert est.error == pytest.approx(scalar.error, rel=1e-7, abs=1e-9)
            if int(pts.sum()) >= 3:
                np.testing.assert_allclose(est.matrix, scalar.matrix, atol=1e-6)


# -- backend resolution behavior ---------------------------------------


class TestResolution:
    def test_auto_falls_back_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = get_backend("auto")
        assert backend.name in ("cupy", "jax", "numpy")
        if not any(n in _AVAILABLE for n in ("cupy", "jax")):
            assert backend.name == "numpy"
            assert backend.is_native_numpy

    def test_unknown_name_raises_validation_error(self):
        with pytest.raises(ValidationError, match="unknown array backend"):
            get_backend("tensorflow")

    def test_numpy_and_generic_always_available(self):
        assert "numpy" in _AVAILABLE
        assert "numpy-generic" in _AVAILABLE
        assert not get_backend("numpy-generic").is_native_numpy

    def test_env_var_drives_default(self, monkeypatch):
        from repro.engine.backend import ARRAY_BACKEND_ENV_VAR, default_backend_name

        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "numpy-generic")
        assert default_backend_name() == "numpy-generic"
        monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, "")
        assert default_backend_name() == "numpy"

    def test_use_backend_nests_and_restores(self):
        from repro.engine.backend import default_backend_name

        assert default_backend_name() == "numpy"
        with use_backend("numpy-generic"):
            assert default_backend_name() == "numpy-generic"
            with use_backend(None):  # None = passthrough, not reset
                assert default_backend_name() == "numpy-generic"
        assert default_backend_name() == "numpy"


# -- property invariants (hypothesis) ----------------------------------


class TestBackendPropertyInvariance:
    """Randomized stacks: the backend knob must never change a boolean
    decision (converged masks, which multistart wins) and the numpy
    path must be byte-identical however the backend gets resolved."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_converged_masks_survive_backend_choice(self, seed):
        problem = padded_problem_stack(seed=seed)
        results = {}
        for name in ("numpy", "numpy-generic"):
            _, _, conv = batch_lss_descend_padded(
                problem["configs"],
                problem["pairs"],
                problem["dists"],
                problem["weights"],
                constraint_pairs=problem["constraint_pairs"],
                constraint_valid=problem["constraint_valid"],
                min_spacing_m=problem["min_spacing_m"],
                max_epochs=120,
                backend=name,
            )
            results[name] = conv
        np.testing.assert_array_equal(
            results["numpy-generic"], results["numpy"]
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_numpy_path_byte_identical_across_resolution_routes(self, seed):
        edges, configs, free_mask = shared_edge_problem(seed=seed)

        def run():
            return batch_lss_descend(
                configs,
                edges,
                None,
                min_spacing_m=None,
                constraint_weight=10.0,
                step_size=0.02,
                max_epochs=120,
                tolerance=1e-7,
                free_mask=free_mask,
            )

        implicit = sha256_bytes(*run())
        with use_backend("numpy"):
            scoped = sha256_bytes(*run())
        explicit = sha256_bytes(
            *batch_lss_descend(
                configs,
                edges,
                None,
                min_spacing_m=None,
                constraint_weight=10.0,
                step_size=0.02,
                max_epochs=120,
                tolerance=1e-7,
                free_mask=free_mask,
                backend="numpy",
            )
        )
        assert implicit == scoped == explicit

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_multistart_argmin_selection_survives_backend_choice(self, seed):
        from repro.core.lss import LssConfig

        edges, _, _ = shared_edge_problem(seed=seed, n_nodes=7)
        config = LssConfig(restarts=2, max_epochs=100, min_spacing_m=1.5)
        per_backend = {}
        for name in ("numpy", "numpy-generic"):
            results = lss_localize_multistart(
                edges, 7, config=config, seeds=[seed, seed + 1, seed + 2],
                backend=name,
            )
            per_backend[name] = results
        ref, out = per_backend["numpy"], per_backend["numpy-generic"]
        assert [r.converged for r in out] == [r.converged for r in ref]
        errors_ref = np.array([r.error for r in ref])
        errors_out = np.array([r.error for r in out])
        # The backends differ only in reduction/accumulation order, but a
        # 100-epoch descent amplifies that to ~1e-7 relative on the final
        # error — tolerance must cover the compounded drift, not a single op.
        np.testing.assert_allclose(errors_out, errors_ref, rtol=1e-6, atol=1e-9)
        ranked = np.sort(errors_ref)
        if len(ranked) > 1 and ranked[1] - ranked[0] > 1e-6 * max(ranked[1], 1e-9):
            assert int(np.argmin(errors_out)) == int(np.argmin(errors_ref))


# -- spec/store invariance ---------------------------------------------


class TestStoreInvariance:
    """``solver.array_backend`` is an execution knob: it must not move
    the scenario hash, and the campaign a backend-pinned spec produces
    must be byte-identical to the default's store entry (cache hit)."""

    def test_spec_hash_excludes_array_backend(self):
        from dataclasses import replace

        from repro.scenarios import get_scenario

        spec = get_scenario("uniform-multilateration")
        pinned = replace(spec, solver=replace(spec.solver, array_backend="numpy"))
        assert pinned.spec_hash() == spec.spec_hash()
        assert "array_backend" not in str(spec.canonical())

    def test_backend_pinned_run_hits_default_cache(self, tmp_path):
        from dataclasses import replace

        from repro.scenarios import get_scenario, run_scenario
        from repro.store import ResultStore

        spec = get_scenario("uniform-multilateration")
        pinned = replace(spec, solver=replace(spec.solver, array_backend="numpy"))
        store = ResultStore(tmp_path / "store")
        ref = run_scenario(spec, master_seed=11, n_trials=2, store=store)
        out = run_scenario(pinned, master_seed=11, n_trials=2, store=store)
        assert store.stats.hits == 1 and store.stats.puts == 1
        assert out.records == ref.records
