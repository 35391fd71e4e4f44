"""ShardedResistanceBackend: per-shard grounded inverses stitched by a Schur complement.

The backend partitions the rows of the grounded Laplacian it is given
(:mod:`repro.distributed.partition`) into shard interiors ``U_1 … U_p`` and a
vertex separator ``T``.  The partition invariant makes the interior block
*block diagonal by shard*::

    L_{-S} = [[ A,  W  ],        A  = blockdiag(A_1 … A_p)
              [ Wᵀ, L_TT]]       W  = stacked interior–separator couplings

so with one inner backend per interior block (``A_i⁻¹``, dense or sparse by
:func:`repro.linalg.backends.choose_backend` on the block's size) the whole
inverse is reachable through one dense ``|T| × |T|`` Schur complement::

    S_c = L_TT − Σ_i W_iᵀ A_i⁻¹ W_i,      M = S_c⁻¹
    (L_{-S}⁻¹)_TT = M
    (L_{-S}⁻¹)_UU = A⁻¹ + (A⁻¹W) M (A⁻¹W)ᵀ

Solves and columns use exact block elimination.  A single row's resistance
is its inner diagonal plus ``gᵀMg`` with ``g = W_iᵀ A_i⁻¹ e_u``.  Traces add:
``Tr = Σ_i Tr(A_i⁻¹) + Tr(M) + Σ_i Tr(M·W_iᵀA_i⁻²W_i)``, the coupling terms
exact when the inner backend is dense or its block small, Hutchinson-sketched
from the inner backend's probe block beyond.

**Low-rank updates.**  A burst of edge triples is classified by where its
endpoints live.  Separator–separator triples move ``L_TT`` only.  Interior
triples go to their shard's inner backend (``A_old → A_new = A_old + BDBᵀ``);
the pre-burst inverse follows from one Woodbury identity

    ``A_old⁻¹ = A_new⁻¹ + V H Vᵀ``, ``V = A_new⁻¹B``, ``H = (D⁻¹ − BᵀV)⁻¹``

(a sparse inner backend hands ``V`` over for free from its accumulated
correction columns — :meth:`ResistanceBackend.correction_columns`), and the
coupling block moves exactly::

    C_new = C_old − G H Gᵀ + (E + Eᵀ) − F,   G = W_oldᵀV,
    E = ΔWᵀA_new⁻¹W_new,  F = ΔWᵀA_new⁻¹ΔW

where ``ΔW`` collects the burst's interior–separator weight changes.  Every
term is low rank, so the Schur complement moves by ``P Λ Pᵀ`` and ``M``
follows by one block Woodbury; a full refresh from the exactly maintained
``S_c`` runs once the folded rank reaches :data:`SCHUR_REFRESH_RANK`.  A
triple joining two different interiors breaks block diagonality: the backend
re-partitions and refactorises in place.  Node events are refactorised by
the tracker (``supports_node_updates`` is False).

**Refresh policy.**  The backend keeps its own float hygiene
(``self_refreshing``): each inner backend is refactorised alone after
:data:`INNER_REFRESH_UPDATES` folded triples (or its own smaller rank cap)
and ``M`` is recomputed at :data:`SCHUR_REFRESH_RANK`, so the tracker's
``refresh_interval`` does not apply.  A full refactorisation — which
re-solves every separator coupling — runs only after
:data:`FULL_REFRESH_UPDATES` low-rank updates (``max_updates``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.distributed.partition import Partition, partition_rows
from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.linalg.backends import ResistanceBackend, Triple, make_resistance_backend
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import trace
from repro.utils.faultpoints import fault_point
from repro.utils.timer import clock
from repro.utils.validation import check_integer

# Sharded-backend metrics (no-ops until the default registry is enabled).
_STITCH_SECONDS = REGISTRY.histogram(
    "repro_shard_stitch_seconds",
    "Wall time of one Schur stitch (inner folds + separator inverse update)",
)
_SHARD_COUNT = REGISTRY.gauge(
    "repro_shard_count",
    "Number of non-empty shards of the sharded backend",
)
_SEPARATOR_NODES = REGISTRY.gauge(
    "repro_shard_separator_nodes",
    "Current vertex-separator size |T|",
)
_REBUILDS_TOTAL = REGISTRY.counter(
    "repro_shard_rebuilds_total",
    "In-place re-partitions forced by a cross-interior insertion",
)
_SCHUR_REFRESHES_TOTAL = REGISTRY.counter(
    "repro_shard_schur_refreshes_total",
    "Full recomputations of M = inv(Schur) (rank budget or singular fold)",
)

#: Accumulated fold rank after which ``M`` is recomputed from ``S_c``.
SCHUR_REFRESH_RANK = 512
#: Triples an inner backend folds before it is refactorised alone (capped
#: further by the inner backend's own ``max_updates``).
INNER_REFRESH_UPDATES = 64
#: Low-rank updates after which the tracker refactorises the whole backend.
FULL_REFRESH_UPDATES = 4096
#: Coupling traces are exact up to this many block rows (sketched beyond),
#: and always exact on a dense inner backend.
EXACT_COUPLING_ROWS = 2048
#: Inner backend specs the ``inner`` option accepts.
INNER_BACKENDS = ("auto", "dense", "sparse")


def _with_triples(matrix: sp.csr_matrix, triples: Sequence[Triple]) -> sp.csr_matrix:
    """``matrix + Σ δ b bᵀ`` for edge triples ``(i, j, δ)``, ``b = e_i − e_j``."""
    rows, cols, vals = [], [], []
    for i, j, delta in triples:
        if j is None:
            rows.append(i)
            cols.append(i)
            vals.append(delta)
        else:
            rows += [i, j, i, j]
            cols += [i, j, j, i]
            vals += [delta, delta, -delta, -delta]
    delta = sp.csr_matrix((vals, (rows, cols)), shape=matrix.shape)
    return (matrix + delta).tocsr()


class _Block:
    """One shard interior: its rows, inner backend and separator coupling.

    ``w`` holds ``W_i`` as ``{(local row, separator position): value}``;
    :meth:`coupling` serves it as a cached CSR matrix.  ``matrix`` is the
    block ``A_i`` at the inner backend's last factorisation and ``pending``
    the triples folded into it since, so an inner backend that reaches its
    own rank cap is refactorised alone (:meth:`apply`).
    """

    def __init__(self, rows: np.ndarray, matrix: sp.csr_matrix, w: sp.csr_matrix, inner: str):
        self.rows = rows
        edges = (matrix.nnz - rows.size) // 2
        self.backend = make_resistance_backend(inner, n=rows.size, m=edges)
        self.matrix = matrix
        self.pending: List[Triple] = []
        self.backend.factorize(matrix if self.backend.wants_sparse else matrix.toarray())
        coo = w.tocoo()
        self.w = {(int(r), int(c)): float(v) for r, c, v in zip(coo.row, coo.col, coo.data)}
        self._csr: Optional[sp.csr_matrix] = w.tocsr()

    def coupling(self, tp: int) -> sp.csr_matrix:
        if self._csr is None:
            shape = (self.rows.size, tp)
            if self.w:
                (rows, cols), vals = zip(*self.w.keys()), list(self.w.values())
                self._csr = sp.csr_matrix((vals, (rows, cols)), shape=shape)
            else:
                self._csr = sp.csr_matrix(shape, dtype=np.float64)
        return self._csr

    def add_coupling(self, deltas: Dict[Tuple[int, int], float]) -> None:
        for key, delta in deltas.items():
            value = self.w.get(key, 0.0) + delta
            if value == 0.0:
                self.w.pop(key, None)
            else:
                self.w[key] = value
        self._csr = None

    def apply(self, triples: List[Triple]) -> None:
        """Fold triples into the inner backend, refactorising at its rank cap."""
        cap = min(INNER_REFRESH_UPDATES, self.backend.max_updates or INNER_REFRESH_UPDATES)
        if len(self.pending) + len(triples) <= cap:
            self.backend.apply_triples(triples)
            self.pending.extend(triples)
            return
        self.matrix = _with_triples(self.matrix, self.pending + triples)
        self.pending = []
        matrix = self.matrix if self.backend.wants_sparse else self.matrix.toarray()
        try:
            self.backend.factorize(matrix)
        except (RuntimeError, ConvergenceError, np.linalg.LinAlgError) as exc:
            raise InvalidParameterError(f"inner refactorisation failed: {exc}") from exc

    def coupled_solves(self, tp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Active separator columns of ``W_i`` and ``A_i⁻¹ W_i`` over them."""
        w = self.coupling(tp)
        active = np.unique(w.indices)
        return active, self.backend.solve_many(w[:, active].toarray())


class ShardedResistanceBackend(ResistanceBackend):
    """Schur-stitched per-shard inner backends (see the module docstring).

    Parameters
    ----------
    shards:
        Number of parts the rows are split into (clamped to the row count).
    inner:
        Inner backend spec of every interior block: ``"dense"``,
        ``"sparse"`` or ``"auto"`` (:func:`choose_backend` on the block's
        size and density).
    """

    name = "sharded"
    wants_sparse = True
    supports_node_updates = False
    self_refreshing = True
    max_updates = FULL_REFRESH_UPDATES

    def __init__(self, shards: int = 2, inner: str = "auto"):
        super().__init__()
        self.shards = check_integer("shards", shards, minimum=1)
        inner = str(inner).lower()
        if inner not in INNER_BACKENDS:
            raise InvalidParameterError(
                f"inner backend must be one of {INNER_BACKENDS}, got {inner!r}"
            )
        self.inner = inner
        self.partition: Optional[Partition] = None
        self.rebuilds = 0
        self._blocks: List[_Block] = []
        self._separator = np.zeros(0, dtype=np.int64)
        self._where = np.zeros(0, dtype=np.int64)
        self._local = np.zeros(0, dtype=np.int64)
        self._schur = np.zeros((0, 0))
        self._m = np.zeros((0, 0))
        self._rank_folded = 0
        self._matrix: Optional[sp.csr_matrix] = None
        self._pending: List[Triple] = []
        self._trace_cache: Optional[Tuple[int, str, float]] = None

    # ------------------------------------------------------------- lifecycle
    @property
    def solver_used(self) -> str:
        return "schur"

    def describe(self) -> Dict[str, object]:
        """Partition summary plus the inner backends in force."""
        info = self.partition.describe() if self.partition is not None else {}
        info.update(inner=[block.backend.name for block in self._blocks], rebuilds=self.rebuilds)
        return info

    def _invalidate(self) -> None:
        super()._invalidate()
        self._trace_cache = None

    def _factorize_impl(self, matrix) -> None:
        matrix = sp.csr_matrix(matrix, dtype=np.float64)
        matrix.eliminate_zeros()
        matrix.sort_indices()
        n = matrix.shape[0]
        previous = self._matrix
        if (
            self.partition is not None
            and previous is not None
            and previous.shape == matrix.shape
            and np.array_equal(previous.indptr, matrix.indptr)
            and np.array_equal(previous.indices, matrix.indices)
        ):
            partition = self.partition  # same pattern: the partition is a function of it
        else:
            partition = partition_rows(matrix, min(self.shards, max(n, 1)))
        separator = partition.separator
        tp = separator.size
        where = np.full(n, -1, dtype=np.int64)
        local = np.empty(n, dtype=np.int64)
        local[separator] = np.arange(tp)
        schur = matrix[separator][:, separator].toarray()
        blocks: List[_Block] = []
        for rows in partition.parts:
            if not rows.size:
                continue
            where[rows] = len(blocks)
            local[rows] = np.arange(rows.size)
            interior = matrix[rows]
            block = _Block(rows, interior[:, rows], interior[:, separator], self.inner)
            if tp and block.w:
                active, solved = block.coupled_solves(tp)
                dense = block.coupling(tp)[:, active].toarray()
                schur[np.ix_(active, active)] -= dense.T @ solved
            blocks.append(block)
        self.partition = partition
        self._blocks = blocks
        self._separator = separator
        self._where = where
        self._local = local
        self._schur = schur
        self._m = np.linalg.inv(schur) if tp else np.zeros((0, 0))
        self._rank_folded = 0
        self._matrix = matrix
        self._pending = []
        _SHARD_COUNT.set(float(len(blocks)))
        _SEPARATOR_NODES.set(float(tp))

    # --------------------------------------------------------------- queries
    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        if rhs.shape[0] != self._n:
            raise InvalidParameterError(
                f"right-hand sides must have {self._n} rows, got {rhs.shape[0]}"
            )
        tp = self._separator.size
        out = np.empty_like(rhs)
        # Block elimination: interior solves, the separator system through M,
        # then the interior back-substitution.
        reduced = rhs[self._separator]
        interior = []
        for block in self._blocks:
            solved = block.backend.solve_many(rhs[block.rows])
            interior.append(solved)
            if tp:
                reduced = reduced - block.coupling(tp).T @ solved
        top = self._m @ reduced
        out[self._separator] = top
        for block, solved in zip(self._blocks, interior):
            if tp:
                solved = solved - block.backend.solve_many(block.coupling(tp) @ top)
            out[block.rows] = solved
        return out[:, 0] if squeeze else out

    def diag_entry(self, index: int) -> float:
        index = int(index)
        shard, row = int(self._where[index]), int(self._local[index])
        if shard < 0:
            return float(self._m[row, row])
        block = self._blocks[shard]
        column = block.backend.column(row)
        tp = self._separator.size
        if not tp:
            return float(column[row])
        g = block.coupling(tp).T @ column
        return float(column[row] + g @ (self._m @ g))

    def _exact_coupling(self, block: _Block, mode: str) -> bool:
        if mode in ("exact", "sketch"):
            return mode == "exact"
        return block.backend.name == "dense" or block.rows.size <= EXACT_COUPLING_ROWS

    def diagonal(self, mode: str = "auto") -> np.ndarray:
        mode = str(mode or "auto").lower()
        tp = self._separator.size
        out = np.empty(self._n, dtype=np.float64)
        out[self._separator] = np.diag(self._m)
        for block in self._blocks:
            values = block.backend.diagonal(mode=mode)
            if tp and block.w:
                if self._exact_coupling(block, mode):
                    active, x = block.coupled_solves(tp)
                    values = values + np.sum((x @ self._m[np.ix_(active, active)]) * x, axis=1)
                else:
                    w = block.coupling(tp)
                    z, y = block.backend.probe_block()
                    v = block.backend.solve_many(w @ (self._m @ (w.T @ y)))
                    values = values + np.mean(z * v, axis=1)
            out[block.rows] = values
        return out

    def trace(self, mode: str = "auto") -> float:
        mode = str(mode or "auto").lower()
        cached = self._trace_cache
        if cached is not None and cached[0] == self._epoch and cached[1] == mode:
            return cached[2]
        tp = self._separator.size
        total = float(np.trace(self._m))
        for block in self._blocks:
            total += block.backend.trace(mode=mode)
            if not (tp and block.w):
                continue
            if self._exact_coupling(block, mode):
                active, x = block.coupled_solves(tp)
                total += float(np.sum(self._m[np.ix_(active, active)] * (x.T @ x)))
            else:
                z, y = block.backend.probe_block()
                g = block.coupling(tp).T @ y
                total += float(np.mean(np.sum(g * (self._m @ g), axis=0)))
        self._trace_cache = (self._epoch, mode, total)
        return total

    # ------------------------------------------------------------- mutations
    def apply_triples(self, triples: Sequence[Triple]) -> None:
        """Fold a burst of edge triples in (see the module docstring).

        Unlike the dense and sparse backends, a burst that raises may leave
        the backend partly updated: the shards fold one after another, and
        a later shard's inner update, fold core or refactorisation can fail
        after earlier shards committed.  Every failure surfaces as
        :class:`InvalidParameterError` or :class:`ConvergenceError`, and the
        backend must be refactorised before the next read — which is what
        :class:`repro.dynamic.IncrementalResistance` does on either error.
        """
        fault_point("backend.apply", subject=self, backend=self.name)
        fresh: List[Triple] = []
        for i, j, delta in triples:
            i = int(i)
            j = None if j is None else int(j)
            if not 0 <= i < self._n or (j is not None and not 0 <= j < self._n):
                raise InvalidParameterError(f"triple ({i}, {j}) outside [0, {self._n - 1}]")
            if j == i:
                raise InvalidParameterError("edge endpoints must be distinct rows")
            if float(delta) != 0.0:
                fresh.append((i, j, float(delta)))
        if not fresh:
            return
        start = clock()
        with trace("schur_stitch", events=len(fresh)) as span:
            plan = self._classify(fresh)
            if plan is None:
                span.set(rebuild=True)
                self._rebuild(fresh)
            else:
                span.set(rank=self._fold(*plan))
                self._pending.extend(fresh)
            self._invalidate()
        if REGISTRY.enabled:
            _STITCH_SECONDS.observe(clock() - start)

    def _classify(self, fresh: List[Triple]):
        """Route each triple: inner triples, ``ΔW`` entries, separator rank-ones.

        Returns ``None`` when a triple joins two different interiors (block
        diagonality breaks; the caller re-partitions).  Side-effect free.
        """
        tp = self._separator.size
        where, local = self._where, self._local
        inner: Dict[int, List[Triple]] = {}
        coupling: Dict[int, Dict[Tuple[int, int], float]] = {}
        diag: Dict[int, float] = {}
        edges: List[Tuple[int, int, float]] = []
        for i, j, delta in fresh:
            si = int(where[i])
            sj = -1 if j is None else int(where[j])
            if j is None and si < 0:
                diag[int(local[i])] = diag.get(int(local[i]), 0.0) + delta
            elif j is None:
                inner.setdefault(si, []).append((int(local[i]), None, delta))
            elif si < 0 and sj < 0:
                edges.append((int(local[i]), int(local[j]), delta))
            elif si >= 0 and sj >= 0:
                if si != sj:
                    return None
                inner.setdefault(si, []).append((int(local[i]), int(local[j]), delta))
            else:
                # Interior–separator edge: the interior diagonal, one W entry
                # (which holds -w) and the separator diagonal all move.
                shard, row, col = (si, i, j) if si >= 0 else (sj, j, i)
                row, col = int(local[row]), int(local[col])
                inner.setdefault(shard, []).append((row, None, delta))
                entries = coupling.setdefault(shard, {})
                entries[(row, col)] = entries.get((row, col), 0.0) - delta
                diag[col] = diag.get(col, 0.0) + delta
        columns: List[np.ndarray] = []
        weights: List[float] = []
        for col, delta in sorted(diag.items()):
            if delta != 0.0:
                unit = np.zeros((tp, 1))
                unit[col, 0] = 1.0
                columns.append(unit)
                weights.append(delta)
        for a, b, delta in edges:
            unit = np.zeros((tp, 1))
            unit[a, 0], unit[b, 0] = 1.0, -1.0
            columns.append(unit)
            weights.append(delta)
        return inner, coupling, columns, weights

    def _fold(self, inner, coupling, columns, weights) -> int:
        """Commit a classified burst; returns the Schur update's rank."""
        if not self._separator.size:
            for shard, triples in sorted(inner.items()):
                self._blocks[shard].apply(triples)
            return 0
        factors = list(columns)
        lams = [np.asarray(weights, dtype=np.float64)]
        for shard in sorted(set(inner) | set(coupling)):
            p_block, lam_block = self._fold_block(
                self._blocks[shard], inner.get(shard, []), coupling.get(shard, {})
            )
            factors.append(p_block)
            lams.append(lam_block)
        lam = np.concatenate(lams)
        if not lam.size:
            return 0
        p_all = np.concatenate(factors, axis=1)
        keep = lam != 0.0
        p_all, lam = p_all[:, keep], lam[keep]
        if not lam.size:
            return 0
        self._schur = self._schur + (p_all * lam) @ p_all.T
        mp = self._m @ p_all
        core = np.diag(1.0 / lam) + p_all.T @ mp
        try:
            updated = self._m - mp @ np.linalg.solve(core, mp.T)
        except np.linalg.LinAlgError:
            updated = None
        self._rank_folded += int(lam.size)
        if updated is None or self._rank_folded >= SCHUR_REFRESH_RANK:
            _SCHUR_REFRESHES_TOTAL.inc()
            try:
                updated = np.linalg.inv(self._schur)
            except np.linalg.LinAlgError as exc:
                raise InvalidParameterError(f"singular Schur complement: {exc}") from exc
            self._rank_folded = 0
        self._m = (updated + updated.T) * 0.5
        return int(lam.size)

    def _fold_block(
        self,
        block: _Block,
        triples: List[Triple],
        dwsum: Dict[Tuple[int, int], float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One shard's fold: returns ``(P, Λ)`` with ``ΔSchur_i = P Λ Pᵀ``."""
        backend = block.backend
        tp = self._separator.size
        if dwsum:
            block.add_coupling(dwsum)
        cols: List[np.ndarray] = []
        lams: List[np.ndarray] = []
        k = len(triples)
        if k:
            block.apply(triples)
            deltas = np.array([t[2] for t in triples], dtype=np.float64)
            rows_i = np.array([t[0] for t in triples], dtype=np.int64)
            rows_j = np.array([-1 if t[1] is None else t[1] for t in triples], dtype=np.int64)
            v = None
            state = backend.correction_columns(k)
            if state is not None:
                ri, rj, dd, corrected = state
                if (
                    np.array_equal(ri, rows_i)
                    and np.array_equal(rj, rows_j)
                    and np.array_equal(dd, deltas)
                ):
                    v = corrected
            mask = rows_j >= 0
            if v is None:
                rhs = np.zeros((block.rows.size, k), dtype=np.float64)
                rhs[rows_i, np.arange(k)] = 1.0
                rhs[rows_j[mask], np.flatnonzero(mask)] = -1.0
                v = backend.solve_many(rhs)
            btv = v[rows_i]
            if np.any(mask):
                btv = btv.copy()
                btv[mask] -= v[rows_j[mask]]
            try:
                h = np.linalg.inv(np.diag(1.0 / deltas) - btv)
                hvals, q = np.linalg.eigh((h + h.T) * 0.5)
            except np.linalg.LinAlgError as exc:
                raise InvalidParameterError(f"singular Schur fold core: {exc}") from exc
            g = block.coupling(tp).T @ v  # W_newᵀ V
            for (row, col), dw in dwsum.items():
                g[col, :] -= dw * v[row, :]  # back out ΔW: G = W_oldᵀ V
            cols.append(np.asarray(g @ q))
            lams.append(hvals)
        if dwsum:
            csr = block.coupling(tp)
            entries = sorted(dwsum.items())
            solved = {row: backend.column(row) for row in sorted({r for (r, _), _ in entries})}
            # −(E + Eᵀ): two symmetric rank-ones per ΔW entry.
            for (row, col), dw in entries:
                x = np.zeros(tp)
                x[col] = 1.0
                y = dw * np.asarray(csr.T @ solved[row]).ravel()
                cols.append(np.column_stack([x + y, x - y]))
                lams.append(np.array([-0.5, 0.5]))
            # +F = J Cw Jᵀ with Cw[m, m'] = dw_m dw_m' (A⁻¹)[r_m, r_m'].
            count = len(entries)
            cw = np.empty((count, count), dtype=np.float64)
            for mi, ((ri_, _), dwi) in enumerate(entries):
                for mj, ((rj_, _), dwj) in enumerate(entries):
                    cw[mi, mj] = dwi * dwj * solved[rj_][ri_]
            wvals, qw = np.linalg.eigh((cw + cw.T) * 0.5)
            scatter = np.zeros((tp, count), dtype=np.float64)
            for mi, ((_, col), _) in enumerate(entries):
                scatter[col, :] += qw[mi, :]
            cols.append(scatter)
            lams.append(wvals)
        if not cols:
            return np.zeros((tp, 0)), np.zeros(0)
        return np.concatenate(cols, axis=1), np.concatenate(lams)

    def _rebuild(self, fresh: List[Triple]) -> None:
        """Re-partition and refactorise the post-burst matrix in place."""
        try:
            self._factorize_impl(_with_triples(self._matrix, self._pending + fresh))
        except (RuntimeError, ConvergenceError, np.linalg.LinAlgError) as exc:
            raise InvalidParameterError(f"sharded re-partition failed: {exc}") from exc
        self.rebuilds += 1
        _REBUILDS_TOTAL.inc()
