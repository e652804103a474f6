"""Bipartite adjacency and normalized Laplacian as sparse symmetric operators.

Users occupy rows 0..M-1 and items rows M..M+K-1 of the joint node space,
so the adjacency is the block matrix [[0, R], [R^T, 0]] and the Laplacian
is I - D^{-1/2} A D^{-1/2} with spectrum inside [0, 2].
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .ingest import InteractionSet


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form.

    Both (i, j) and (j, i) are stored, so symmetry is exact by construction.
    """

    def __init__(self, mat: sp.csr_matrix):
        if mat.shape[0] != mat.shape[1]:
            raise DataError(f"matrix is not square: {mat.shape}")
        self.mat = mat.tocsr()
        self.n = mat.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.mat.nnz)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.mat.sum(axis=1)).ravel()

    def export_coo_text(self, path) -> None:
        """Write "i j value" lines sorted by (i, j) for external diffing."""
        coo = self.mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w", encoding="utf-8") as fh:
            for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
                fh.write(f"{r} {c} {v:.17g}\n")


@dataclass(frozen=True)
class BipartiteLaplacian:
    """Normalized Laplacian of the user-item graph plus degree bookkeeping."""

    num_users: int
    num_items: int
    lap: SparseSymMatrix
    degree: np.ndarray

    @property
    def n(self) -> int:
        return self.num_users + self.num_items


def build_adjacency(data: InteractionSet) -> SparseSymMatrix:
    """Assemble the binary (M+K)x(M+K) bipartite adjacency matrix."""
    if data.num_pairs == 0:
        raise DataError("cannot build a graph from an empty interaction set")
    m = data.num_users
    n = m + data.num_items
    rows = data.pairs[:, 0]
    cols = m + data.pairs[:, 1]
    vals = np.ones(len(rows), dtype=np.float64)
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    mat = (upper + upper.T).tocsr()
    return SparseSymMatrix(mat)


def build_laplacian(
    adj: SparseSymMatrix, num_users: int, num_items: int
) -> BipartiteLaplacian:
    """Form L = I - D^{-1/2} A D^{-1/2}.

    Every node must have degree >= 1 (the ingest filters guarantee this for
    train sets built from surviving users/items); zero-degree nodes are
    reported by index with a user/item label.
    """
    if num_users + num_items != adj.n:
        raise DataError(
            f"adjacency size {adj.n} does not match "
            f"{num_users} users + {num_items} items"
        )
    degree = adj.row_sums()
    dead = np.flatnonzero(degree == 0)
    if dead.size:
        labels = [
            f"user {d}" if d < num_users else f"item {d - num_users}"
            for d in dead[:10]
        ]
        more = "" if dead.size <= 10 else f" (+{dead.size - 10} more)"
        raise DataError(f"zero-degree nodes: {', '.join(labels)}{more}")
    inv_sqrt = 1.0 / np.sqrt(degree)
    coo = adj.mat.tocoo()
    scaled = sp.coo_matrix(
        (-coo.data * inv_sqrt[coo.row] * inv_sqrt[coo.col], (coo.row, coo.col)),
        shape=(adj.n, adj.n),
    )
    lap = (sp.identity(adj.n, format="coo") + scaled).tocsr()
    return BipartiteLaplacian(
        num_users=num_users,
        num_items=num_items,
        lap=SparseSymMatrix(lap),
        degree=degree,
    )
