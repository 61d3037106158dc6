"""Classical multidimensional scaling and MDS-MAP baselines.

Related-work comparators for the paper's LSS scheme (Section 2 cites
Shang & Ruml's MDS-based localization [18, 19]):

* :func:`classical_mds` — the textbook procedure: double-center the
  squared distance matrix, eigendecompose, take the top components.
  Requires the *complete* distance matrix — "one problem with this
  centralized approach", and the motivation for LSS.
* :func:`complete_distances` — fills the missing entries with
  shortest-path distances over the measurement graph.
* :func:`mds_map` — the MDS-MAP baseline: shortest-path completion +
  classical MDS, producing relative coordinates from sparse data.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .._validation import as_finite_array
from ..errors import GraphDisconnectedError, ValidationError
from .measurements import as_edge_list

__all__ = ["classical_mds", "complete_distances", "mds_map"]


def classical_mds(distance_matrix, n_components: int = 2) -> np.ndarray:
    """Classical (Torgerson) MDS.

    Parameters
    ----------
    distance_matrix : array-like of shape (n, n)
        Complete symmetric distance matrix.
    n_components : int
        Output dimensionality (2 for planar localization).

    Returns
    -------
    ndarray of shape (n, n_components)
        Relative coordinates (centered at the origin; arbitrary
        rotation/reflection).
    """
    d = as_finite_array(distance_matrix, "distance_matrix", ndim=2)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValidationError("distance_matrix must be square")
    if not np.allclose(d, d.T, atol=1e-8):
        raise ValidationError("distance_matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValidationError("distance_matrix diagonal must be zero")
    if not 1 <= n_components <= n:
        raise ValidationError("n_components must be in [1, n]")
    # Double centering: B = -1/2 J D^2 J
    sq = d**2
    centering = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * centering @ sq @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    top_values = np.maximum(eigenvalues[order], 0.0)
    return eigenvectors[:, order] * np.sqrt(top_values)


def complete_distances(measurements, n_nodes: int) -> np.ndarray:
    """Complete a sparse measurement set via graph shortest paths.

    Raises :class:`GraphDisconnectedError` when the measurement graph
    does not connect all *n_nodes* nodes (shortest-path completion is
    then impossible for some pairs).
    """
    edges = as_edge_list(measurements, nonempty=True)
    if n_nodes < 2:
        raise ValidationError("n_nodes must be >= 2")
    rows = np.concatenate([edges.pairs[:, 0], edges.pairs[:, 1]])
    cols = np.concatenate([edges.pairs[:, 1], edges.pairs[:, 0]])
    vals = np.concatenate([edges.distances, edges.distances])
    graph = csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    full = shortest_path(graph, method="D", directed=False)
    if np.any(np.isinf(full)):
        raise GraphDisconnectedError(
            "measurement graph is disconnected; cannot complete the "
            "distance matrix by shortest paths"
        )
    return full


def mds_map(measurements, n_nodes: int, n_components: int = 2) -> np.ndarray:
    """MDS-MAP baseline: shortest-path completion then classical MDS.

    Returns relative coordinates of shape ``(n_nodes, n_components)``.
    """
    full = complete_distances(measurements, n_nodes)
    return classical_mds(full, n_components=n_components)
