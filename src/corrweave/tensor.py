"""Multipartite density operators and entropic primitives.

Finite-dimensional multipartite states with three interchangeable payload
representations, tracked by a tag:

* ``dense``     -- full complex density matrix;
* ``pure``      -- amplitude vector of a pure state;
* ``classical`` -- sparse probability table over digit tuples, for diagonal
  states whose Hilbert dimension can far exceed the dense capacity limit.

Each representation is one row (:data:`_REP_ROWS`), read as ``state._rep_row``:
its all-subsets entropy pass, its prefix pass or None, its entropy of one
sorted keep-set and its distance under a permutation.  Any object with
``n_parties``, ``dims``, an ``_entropies`` memo dict and a row (or a preset
``permutation_invariant`` in place of the distance) is a source of entropies.

All entropies are in bits (base-2 logarithms).  Subsystems are indexed
``0 .. N-1``; composite indices follow the Kronecker convention (subsystem
0 is the most significant digit).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ArgumentError, CapacityError, NumericError
from .partitions import integer

#: Largest total Hilbert dimension admitted for dense/pure payloads.
#: Eigendecompositions beyond this are impractical; classical tables are
#: exempt because their cost scales with the number of nonzero entries.
DEFAULT_MAX_DENSE_DIM = 4096

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PURE_NORM_TOL = 1e-12
CLASSICAL_SUM_TOL = 1e-12
#: Spectrum entries below this contribute zero to entropies.
EIG_CLIP = 1e-12
#: Probability weight outside the support of the second argument that makes
#: a relative entropy infinite.
SUPPORT_WEIGHT_TOL = 1e-9
#: Tolerance for detecting invariance under subsystem permutations.
PERM_INVARIANCE_TOL = 1e-10

REP_DENSE = "dense"
REP_PURE = "pure"
REP_CLASSICAL = "classical"


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(integer(d, "a local dimension") for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ArgumentError(f"dims must be a nonempty list of integers >= 2, got {dims}")
    return dims


def _dense_dim(dims: Sequence[int] | Mapping[int, int]) -> int:
    """The product of the local dimensions, a sequence or a ``{dimension:
    count}`` mapping, or a CapacityError, raised before any larger number
    is formed, when that exceeds the dense capacity limit.  The message
    gives the product as powers (``2^15000``), which prints at any N where
    the decimal number would not."""
    powers = dims if isinstance(dims, Mapping) else Counter(dims)
    total = 1
    for base, count in powers.items():
        part = _power_within(base, count, DEFAULT_MAX_DENSE_DIM // total)
        if part is None:
            shown = " x ".join(f"{b}^{c}" if c > 1 else f"{b}" for b, c in powers.items())
            raise CapacityError(f"total dimension {shown} exceeds the dense "
                                f"capacity limit {DEFAULT_MAX_DENSE_DIM}")
        total *= part
    return total


def _power_within(base: int, power: int, cap: int) -> Optional[int]:
    """``base ** power`` if it is at most ``cap``, else None.  With
    ``base >= 2`` the product passes ``cap`` within ``cap.bit_length()``
    factors, so a huge ``power`` is never multiplied out."""
    total = 1
    for _ in range(power):
        total *= base
        if total > cap:
            return None
    return total


@dataclass(frozen=True, eq=False)
class DensityState:
    """Immutable multipartite state in one of three representations.

    Construct through :meth:`from_matrix`, :meth:`from_amplitudes` or
    :meth:`from_probabilities`; the raw constructor performs no validation.

    Attributes
    ----------
    dims : tuple of int
        Local dimension of each subsystem, all >= 2.
    rep : str
        One of ``dense``, ``pure``, ``classical``.
    permutation_invariant : bool or None
        The verdict of :func:`is_permutation_invariant` once it has been
        measured, ``None`` before; it cannot be set by a caller.

    The marginal entropies measured so far are kept on the state too,
    keyed by subset bitmask (see :func:`corrweave.subset_entropies`).
    """

    dims: tuple[int, ...]
    rep: str
    _matrix: Optional[np.ndarray] = None
    _amps: Optional[np.ndarray] = None
    _table: Optional[dict] = None
    permutation_invariant: Optional[bool] = field(default=None, init=False)
    _rows: Optional[tuple] = field(default=None, init=False, repr=False)
    _entropies: dict = field(default_factory=dict, init=False, repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, dims, *, validate: bool = True) -> "DensityState":
        """Wrap a dense density matrix.

        Validation enforces hermiticity within 1e-10, unit trace within
        1e-10 and smallest eigenvalue >= -1e-10.  The spectrum of that
        last check gives the state's full-set entropy too: it has the bits
        :func:`vn_entropy` computes from the stored copy, because
        ``_hermitize`` works entry by entry and numpy hands LAPACK the same
        Fortran-ordered buffer whatever the input's memory order.  (The
        check runs before the copy is made, so the two are not alive
        together.)
        """
        dims = _check_dims(dims)
        dim = _dense_dim(dims)
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ArgumentError(f"matrix shape {m.shape} does not match dims {dims}")
        if validate:
            if not np.isfinite(m).all():
                raise ArgumentError("matrix has a NaN or infinite entry")
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
                if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
                    raise ArgumentError("matrix is not Hermitian within 1e-10")
                if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
                    raise ArgumentError("matrix trace differs from 1 beyond 1e-10")
                evals = np.linalg.eigvalsh(_hermitize(m))
            # an entry past half the float range gives a NaN spectrum; a
            # Hermitian unit-trace matrix with such an entry is not PSD
            if not evals.min() >= -PSD_TOL:
                raise ArgumentError("matrix has an eigenvalue below -1e-10")
        m = m.copy()
        m.setflags(write=False)
        state = cls(dims, REP_DENSE, _matrix=m)
        if validate:
            state._entropies[(1 << len(dims)) - 1] = _shannon_bits(evals)
        return state

    @classmethod
    def from_amplitudes(cls, amps, dims, *, validate: bool = True) -> "DensityState":
        """Wrap a pure state's amplitude vector (unit norm within 1e-12)."""
        dims = _check_dims(dims)
        dim = _dense_dim(dims)
        a = np.asarray(amps, dtype=complex).reshape(-1)
        if a.shape != (dim,):
            raise ArgumentError(f"amplitude length {a.shape[0]} does not match dims {dims}")
        if validate and not np.isfinite(a).all():
            raise ArgumentError("amplitude vector has a NaN or infinite entry")
        with np.errstate(over="ignore"):  # an overflowed norm is inf, which fails the check
            if validate and abs(np.linalg.norm(a) - 1.0) > PURE_NORM_TOL:
                raise ArgumentError("amplitude vector norm differs from 1 beyond 1e-12")
        a = a.copy()
        a.setflags(write=False)
        return cls(dims, REP_PURE, _amps=a)

    @classmethod
    def from_probabilities(cls, table: Mapping, dims, *,
                           validate: bool = True) -> "DensityState":
        """Wrap a sparse probability table ``{digit tuple: probability}``.

        Digits must be integers within ``dims`` per position; probabilities must
        be nonnegative and sum to 1 within 1e-12.  No capacity limit applies.
        """
        dims = _check_dims(dims)
        n = len(dims)
        clean: dict = {}
        total = 0.0
        for key, p in table.items():
            key = tuple(integer(x, "a digit") if validate else int(x) for x in key)
            p = float(p)
            if validate:
                if len(key) != n or any(not 0 <= x < d for x, d in zip(key, dims)):
                    raise ArgumentError(f"digit string {key} incompatible with dims {dims}")
                if not math.isfinite(p):
                    raise ArgumentError(f"non-finite probability {p} at {key}")
                if p < -CLASSICAL_SUM_TOL:
                    raise ArgumentError(f"negative probability {p} at {key}")
                if key in clean:
                    raise ArgumentError(f"duplicate digit string {key}")
            total += p
            if p > 0.0:
                clean[key] = p
        if validate and abs(total - 1.0) > CLASSICAL_SUM_TOL:
            raise ArgumentError(f"probabilities sum to {total}, not 1 within 1e-12")
        return cls(dims, REP_CLASSICAL, _table=clean)

    # -- basic properties ---------------------------------------------

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def is_pure(self) -> bool:
        return self.rep == REP_PURE

    @property
    def is_classical(self) -> bool:
        return self.rep == REP_CLASSICAL

    @property
    def _rep_row(self) -> "_RepRow":
        return _REP_ROWS[self.rep]()

    def amplitudes(self) -> np.ndarray:
        if self.rep != REP_PURE:
            raise ArgumentError(f"state has representation {self.rep!r}, not pure")
        return self._amps

    def probabilities(self) -> dict:
        if self.rep != REP_CLASSICAL:
            raise ArgumentError(f"state has representation {self.rep!r}, not classical")
        return dict(self._table)

    def _digit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The classical table as a digit array, one row per entry, and a
        probability array, both in table order; built on first use.  A
        digit outside ``0..d-1`` raises an ArgumentError; a local dimension
        beyond 2**64 keeps its digits as Python ints."""
        if self._rows is None:
            keys = list(self._table)
            try:
                digits = np.array(keys, dtype=np.min_scalar_type(max(self.dims) - 1))
            except OverflowError:  # a digit beyond the array's type, named below
                digits = np.array(keys, dtype=object)
            digits = digits.reshape(len(keys), self.n_parties)
            bad = (digits < 0) | (digits >= np.asarray(self.dims))
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise ArgumentError(f"digit {keys[row][col]} of {keys[row]} "
                                    f"out of range for dims {self.dims}")
            probs = np.fromiter(self._table.values(), dtype=float, count=len(keys))
            object.__setattr__(self, "_rows", (digits, probs))
        return self._rows

    def to_matrix(self) -> np.ndarray:
        """Materialize the dense density matrix (capacity-checked)."""
        if self.rep == REP_DENSE:
            return self._matrix
        dim = _dense_dim(self.dims)
        if self.rep == REP_PURE:
            m = np.outer(self._amps, self._amps.conj())
        else:
            digits, probs = self._digit_rows()
            i = np.ravel_multi_index(digits.T, self.dims)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, i] = probs
        m.setflags(write=False)
        return m

    def __repr__(self) -> str:  # identity-based equality; repr aids debugging
        flag = self.permutation_invariant
        return f"DensityState(dims={self.dims}, rep={self.rep!r}, perm_inv={flag})"


def _hermitize(m: np.ndarray) -> np.ndarray:
    """``(m + m^dagger) / 2`` entry by entry, for a matrix or a stack of them."""
    out = m + m.conj().swapaxes(-1, -2)
    out /= 2.0
    return out


def _normalize_keep(keep: Iterable[int], n: int) -> tuple[int, ...]:
    """``keep`` as a sorted tuple of distinct integer indices below ``n``.
    A ``range`` with a positive step holds sorted, distinct ints, so only
    its bounds are checked."""
    if isinstance(keep, range) and keep.step > 0:
        keep = tuple(keep)
    else:
        keep = tuple(sorted(integer(i, "a party index") for i in keep))
        if len(set(keep)) != len(keep):
            raise ArgumentError(f"keep-set {keep} contains duplicates")
    if not keep:
        raise ArgumentError("keep-set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ArgumentError(f"keep-set {keep} out of range for {n} subsystems")
    return keep


# -- composition and reduction ----------------------------------------


def tensor_product(a: DensityState, b: DensityState) -> DensityState:
    """Kronecker product of two states; ``a`` occupies the leading subsystems.

    The output representation is pure if both inputs are pure, classical if
    both are classical, dense otherwise.  Dense and pure outputs are
    capacity-limited (4096 total dimension); classical outputs are not.
    """
    dims = a.dims + b.dims
    if a.rep == REP_CLASSICAL and b.rep == REP_CLASSICAL:
        table = {ka + kb: pa * pb
                 for ka, pa in a._table.items()
                 for kb, pb in b._table.items()}
        return DensityState.from_probabilities(table, dims, validate=False)
    _dense_dim(dims)  # before np.kron forms a vector or matrix past the cap
    if a.rep == REP_PURE and b.rep == REP_PURE:
        amps = np.kron(a._amps, b._amps)
        return DensityState.from_amplitudes(amps, dims, validate=False)
    m = np.kron(a.to_matrix(), b.to_matrix())
    return DensityState.from_matrix(m, dims, validate=False)


def partial_trace(state: DensityState, keep: Iterable[int]) -> DensityState:
    """Marginal state on the sorted index-set ``keep``.

    Classical states stay classical: the marginal table lists its digit
    strings in order of first appearance in the state's table, each with
    its rows' probabilities summed in table order from 0.0 (grouped by
    :func:`_prefix_labels`).  Pure states stay pure only when every
    subsystem is kept, otherwise the marginal is dense.  Dense marginals
    trace out the discarded subsystems highest index first, so tracing
    ``keep`` from the marginal on ``keep`` plus its lowest missing
    subsystem gives the same bits as tracing it from the whole state.
    """
    n = state.n_parties
    keep = _normalize_keep(keep, n)
    if len(keep) == n:
        return state
    out_dims = tuple(state.dims[i] for i in keep)
    if state.rep == REP_CLASSICAL:
        digits, probs = state._digit_rows()
        sub, table = digits[:, list(keep)], {}
        if len(probs):  # not an unvalidated empty table
            [((labels,), _)] = _prefix_labels(sub, [len(keep)])
            sums = np.bincount(labels, weights=probs)
            # labels first appear in increasing order: where their running maximum reaches each
            first = np.searchsorted(np.maximum.accumulate(labels), np.arange(len(sums)))
            table = dict(zip(map(tuple, sub[first].tolist()), sums.tolist()))
        return DensityState.from_probabilities(table, out_dims, validate=False)
    if state.rep == REP_PURE:
        a = _pure_amp_matrix(state, keep)
        m = a @ a.conj().T
    else:
        m = _dense_partial_trace(state._matrix, state.dims, keep)
    return DensityState.from_matrix(m, out_dims, validate=False)


def _pure_amp_matrix(state: DensityState, keep: Sequence[int]) -> np.ndarray:
    """Amplitudes reshaped to (dim kept, dim traced)."""
    n = state.n_parties
    rest = [i for i in range(n) if i not in keep]
    t = state._amps.reshape(state.dims)
    t = np.transpose(t, list(keep) + rest)
    dk = math.prod(state.dims[i] for i in keep)
    return t.reshape(dk, -1)


def _dense_partial_trace(matrix: np.ndarray, dims: Sequence[int],
                         keep: Sequence[int]) -> np.ndarray:
    t = matrix.reshape(tuple(dims) * 2)
    # Trace out discarded subsystems one at a time, highest index first so
    # earlier axis positions stay valid.
    for i in sorted((j for j in range(len(dims)) if j not in keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=t.ndim // 2 + i)
    dk = math.prod(dims[i] for i in keep)
    return t.reshape(dk, dk)


def permute_subsystems(state: DensityState, perm: Sequence[int]) -> DensityState:
    """Reorder subsystems: output subsystem ``j`` is input subsystem ``perm[j]``."""
    n = state.n_parties
    perm = tuple(integer(p, "a party index") for p in perm)
    if sorted(perm) != list(range(n)):
        raise ArgumentError(f"{perm} is not a permutation of 0..{n - 1}")
    out_dims = tuple(state.dims[p] for p in perm)
    if state.rep == REP_PURE:
        t = state._amps.reshape(state.dims)
        amps = np.transpose(t, perm).reshape(-1)
        return DensityState.from_amplitudes(amps, out_dims, validate=False)
    if state.rep == REP_CLASSICAL:
        table = {tuple(key[p] for p in perm): v for key, v in state._table.items()}
        return DensityState.from_probabilities(table, out_dims, validate=False)
    t = state._matrix.reshape(state.dims * 2)
    axes = perm + tuple(n + p for p in perm)
    m = np.transpose(t, axes).reshape(state.dim, state.dim)
    return DensityState.from_matrix(m, out_dims, validate=False)


# -- channels ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    ``targets`` are the subsystem indices the operators act on, in the
    order matching the operators' tensor factorization.  Finite entries and
    completeness (sum of K^dagger K equal to the identity within 1e-10)
    are enforced at construction.
    """

    kraus: tuple[np.ndarray, ...]
    targets: tuple[int, ...]

    def __init__(self, kraus, targets):
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
        targets = tuple(integer(t, "a target index") for t in targets)
        if not ops:
            raise ArgumentError("channel needs at least one Kraus operator")
        d = ops[0].shape[0] if ops[0].ndim == 2 else 0
        if any(k.ndim != 2 or k.shape != (d, d) for k in ops) or d < 2:
            raise ArgumentError("Kraus operators must share one square shape")
        if not all(np.isfinite(k).all() for k in ops):
            raise ArgumentError("a Kraus operator has a NaN or infinite entry")
        if len(set(targets)) != len(targets) or not targets:
            raise ArgumentError(f"targets {targets} must be distinct and nonempty")
        comp = sum(k.conj().T @ k for k in ops)
        if np.abs(comp - np.eye(d)).max() > HERMITICITY_TOL:
            raise ArgumentError("Kraus set is incomplete: sum K^t K differs "
                                "from identity beyond 1e-10")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "targets", targets)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def apply_channel(state: DensityState, channel: KrausChannel) -> DensityState:
    """Apply a Kraus channel on its target subsystems.

    A single-operator channel (necessarily an isometry) keeps a pure input
    pure; every other case materializes a dense output.
    """
    n = state.n_parties
    targets = channel.targets
    if any(not 0 <= t < n for t in targets):
        raise ArgumentError(f"targets {targets} out of range for {n} subsystems")
    tdims = tuple(state.dims[t] for t in targets)
    if math.prod(tdims) != channel.dim:
        raise ArgumentError(
            f"channel dimension {channel.dim} does not match joint target "
            f"dimension {math.prod(tdims)}")
    if state.rep == REP_PURE and len(channel.kraus) == 1:
        amps = _apply_op(state._amps.reshape(state.dims), channel.kraus[0], targets)
        return DensityState.from_amplitudes(amps.reshape(-1), state.dims)
    m = len(targets)
    rt = state.to_matrix().reshape(state.dims * 2)
    col_axes = tuple(n + t for t in targets)
    out = np.zeros_like(rt)
    for k in channel.kraus:
        # the state stays the left operand: the output's bits depend on the order
        b = np.tensordot(_apply_op(rt, k, targets), k.reshape(tdims * 2).conj(),
                         axes=(col_axes, tuple(range(m, 2 * m))))
        out += np.moveaxis(b, tuple(range(2 * n - m, 2 * n)), col_axes)
    return DensityState.from_matrix(out.reshape(state.dim, state.dim), state.dims)


def _apply_op(t: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """The operator ``op`` applied from the left to the ``axes`` of the
    tensor ``t``, whose dimensions there factor its square matrix."""
    m = len(axes)
    kt = op.reshape(tuple(t.shape[a] for a in axes) * 2)
    out = np.tensordot(kt, t, axes=(tuple(range(m, 2 * m)), tuple(axes)))
    return np.moveaxis(out, tuple(range(m)), tuple(axes))


# -- entropies ---------------------------------------------------------


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p > EIG_CLIP]
    h = float(-(p * np.log2(p)).sum())
    return h if h > 0 else 0.0  # the spectrum [1.0] gives -0.0


def _segment_sums(a: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a[start:stop])`` for each segment.  A pairwise sum's
    bits depend on its slice, so each longer segment is reduced alone;
    segments of one or two terms (at most one rounding) are summed at once,
    plus the 0.0 that numpy's reduce starts from (it turns -0.0 into 0.0)."""
    first = a[starts]
    out = np.where(stops - starts > 1, first + a[np.minimum(starts + 1, a.size - 1)], first)
    long = np.flatnonzero(stops - starts > 2)
    out[long] = [np.add.reduce(a[i:j])
                 for i, j in zip(starts[long].tolist(), stops[long].tolist())]
    return out + 0.0


def marginal_entropy(state: DensityState, keep: Iterable[int]) -> float:
    """Entropy in bits of the marginal on ``keep``, without materializing
    the marginal when a cheaper route exists.

    Pure states use the singular values of the reshaped amplitude tensor,
    so the cost scales with the smaller of the kept/discarded dimensions.
    The full set of a pure state is 0.0 exactly.  Classical states sum
    the probabilities of the row groups :func:`_prefix_labels` finds and
    never build the marginal's table.  Dense states diagonalize the matrix
    :func:`_dense_partial_trace` gives, the state's own on the full set,
    with no marginal state built.  Every subset's value, with the same
    bits, comes from one batched pass (:func:`entropy_passes`).
    """
    return state._rep_row.entropy(state, _normalize_keep(keep, state.n_parties))


def _pure_marginal(state: DensityState, keep: tuple[int, ...]) -> float:
    if len(keep) == state.n_parties:
        return 0.0
    a = _pure_amp_matrix(state, keep)
    s = np.linalg.svd(a.T if a.shape[0] > a.shape[1] else a, compute_uv=False)
    return _shannon_bits(s * s)


def _classical_marginal(state: DensityState, keep: tuple[int, ...]) -> float:
    digits, probs = state._digit_rows()
    if not len(probs):  # an unvalidated empty table
        return 0.0
    [((labels,), _)] = _prefix_labels(digits[:, list(keep)], [len(keep)])
    return _shannon_bits(np.bincount(labels, weights=probs))


def _dense_marginal(state: DensityState, keep: tuple[int, ...]) -> float:
    m = _dense_partial_trace(state._matrix, state.dims, keep)
    return _shannon_bits(np.linalg.eigvalsh(_hermitize(m)))


def vn_entropy(state: DensityState) -> float:
    """Von Neumann entropy in bits: :func:`marginal_entropy` of every
    party, so exactly 0.0 for pure representations."""
    return marginal_entropy(state, range(state.n_parties))


#: Row labels held at a time when a classical state's subset entropies are
#: tabulated: a few MB of keys and sort indices.
_LABEL_BLOCK = 1 << 14


def _classical_prefix_entropies(state: DensityState) -> np.ndarray:
    """``h[s]``, the entropy of the parties ``0..s-1`` of a classical state
    for ``s = 0..N``, each with the bits of :func:`marginal_entropy`: one
    :func:`_prefix_labels` pass over every party, its labels valued as a
    block of :func:`_classical_entropies` is."""
    digits, probs = state._digit_rows()
    h = np.zeros(digits.shape[1] + 1)
    if len(probs):  # not an unvalidated empty table
        h[1:] = np.concatenate([_block_entropies(*labels, probs)
                                for labels in _prefix_labels(digits, range(1, len(h)))])
    return h


def _prefix_labels(digits: np.ndarray,
                   sizes: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_first_appearance` of the rows of ``digits`` by their first
    ``s`` digits, one row of labels for each ``s`` in ``sizes``, yielded
    ``_LABEL_BLOCK`` labels (at least one size) at a time.  The rows are
    sorted once by digit string; the prefix of ``s`` digits starts a group
    at each sorted row that first differs from the row before at a digit
    below ``s``, so one ``cumsum`` numbers its groups in sorted order."""
    rows, n = digits.shape
    order = np.lexsort(digits.T[::-1])
    differ = np.diff(digits[order], axis=0) != 0
    # the first digit where each sorted row differs from the one before; n for the first
    split = np.concatenate(([n], np.where(differ.any(axis=1), differ.argmax(axis=1), n)))
    rank = np.argsort(order)
    step = max(1, _LABEL_BLOCK // rows)
    for first in range(0, len(sizes), step):
        block = np.asarray(sizes[first:first + step])
        ids = np.cumsum(split < block[:, None], axis=1, dtype=np.min_scalar_type(rows))
        yield _first_appearance(ids[:, rank])


def _classical_entropies(state: DensityState) -> np.ndarray:
    """The entropy of every subset of a classical state's parties, indexed
    by bitmask (entry 0, the empty set, is 0.0), each with the bits of
    :func:`marginal_entropy`.

    A subset labels the table's rows by their kept digit strings, counting
    the strings in order of first appearance.  The labels of a subset
    with one more party rank ``label * d + digit``, d being the number of
    that party's labels, so they stay below the row count and nothing
    overflows at any local dimension (:func:`_refine`).  The subsets of
    parties ``0..m-1`` are labelled one highest party at a time, with
    ``m`` as large as keeps them within ``_LABEL_BLOCK`` labels; then each
    subset ``H`` of the other parties, walked depth first, labels ``H``
    plus every one of those subsets in one block.  A block's strings are
    summed by one ``np.bincount`` and valued as :func:`_shannon_bits`
    values a spectrum (:func:`_block_entropies`).
    """
    digits, probs = state._digit_rows()
    rows, n = digits.shape
    h = np.zeros(1 << n)
    if not rows:  # an unvalidated empty table
        return h
    parties = [_first_appearance(column[None]) for column in digits.T]
    m = n
    while m > 1 and rows << m > _LABEL_BLOCK:
        m -= 1
    low = np.zeros((1 << m, rows), np.min_scalar_type(rows))
    counts = np.ones(1 << m, np.int64)
    for t in range(m):
        low[1 << t:2 << t], counts[1 << t:2 << t] = _refine(low[:1 << t], *parties[t])
    h[1:1 << m] = _block_entropies(low[1:], counts[1:], probs)

    def walk(labels, count, mask, top):
        h[mask:mask + (1 << m)] = _block_entropies(*_refine(low, labels, count), probs)
        for t in range(top + 1, n):
            walk(*_refine(labels, *parties[t]), mask | 1 << t, t)

    for t in range(m, n):
        walk(*parties[t], 1 << t, t)
    return h


def _refine(labels: np.ndarray, by: np.ndarray,
            count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_first_appearance` of the pairs (``labels``, ``by``) in each
    row of ``labels``, ``by`` being one row of ``count`` labels."""
    count = int(count[0])
    keys = labels.astype(np.min_scalar_type(labels.shape[1] * count))
    keys *= count
    keys += by
    return _first_appearance(keys)


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``keys`` with every entry replaced by the index of its
    value among the row's distinct values, listed in order of first
    appearance; and the number of distinct values per row."""
    blocks, rows = keys.shape
    # the stable sort lists each row's equal keys from their first entry
    order = np.argsort(keys, axis=1, kind="stable")
    order += np.arange(0, blocks * rows, rows)[:, None]
    order = order.ravel()
    ranked = keys.ravel()[order]
    new = np.empty(order.size, bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    new[::rows] = True
    first = order[new]
    is_first = np.zeros(order.size, bool)
    is_first[first] = True
    ids = np.cumsum(is_first)
    ids -= 1
    group = np.cumsum(new)
    group -= 1
    label = np.empty(order.size, np.int64)
    label[order] = ids[first][group]
    starts = ids[::rows]
    label = label.reshape(blocks, rows)
    label -= starts[:, None]
    return label.astype(np.min_scalar_type(rows)), np.diff(starts, append=ids[-1] + 1)


def _block_entropies(labels: np.ndarray, counts: np.ndarray,
                     probs: np.ndarray) -> np.ndarray:
    """For each row of ``labels``, with ``counts`` labels, the entropy of
    ``probs`` summed per label: the sums of all rows come from one
    ``np.bincount``, each in table order from 0.0, and each row's are
    valued in label order as :func:`_shannon_bits` values a spectrum."""
    ends = np.cumsum(counts)
    ids = labels + (ends - counts)[:, None]
    sums = np.bincount(ids.ravel(), weights=np.tile(probs, len(labels)))
    return _spectra_bits(sums, ends)


def _spectra_bits(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """:func:`_shannon_bits` of each spectrum ``values[ends[i - 1]:ends[i]]``
    (the first from 0), with the same bits: the entries above ``EIG_CLIP``
    in spectrum order, their ``p log2 p`` summed by :func:`_segment_sums`."""
    kept = values > EIG_CLIP
    stops = np.concatenate(([0], np.cumsum(kept)))[ends]
    starts = np.concatenate(([0], stops[:-1]))
    p = values[kept]
    # the trailing 0.0 keeps a spectrum with no term inside the array
    h = -_segment_sums(np.append(p * np.log2(p), 0.0), starts, stops)
    return np.where((stops > starts) & (h > 0), h, 0.0)  # the spectrum [1.0] gives -0.0


#: Bytes of amplitude matrices, or of traced marginals, held at a time
#: over all shapes when a pure or dense state's subset entropies are
#: tabulated: 64 qubit matrices at N = 8, a few at N = 12.
_STACK_BYTES = 1 << 18


def _pure_entropies(state: DensityState) -> np.ndarray:
    """The entropy of every subset of a pure state's parties, indexed by
    bitmask, each with the bits of :func:`marginal_entropy`.  A subset of
    dimension ``dk`` at most its complement's is computed from the (``dk``,
    traced) amplitude matrix that takes: the amplitude tensor transposed to
    put the subset's parties first.  An unbalanced cut's complement takes
    its bits, as the transpose of the same matrix; a balanced cut is
    computed on both sides."""
    n = state.n_parties
    full = (1 << n) - 1
    dims, dim = np.array(state.dims), state.dim
    masks = np.arange(1, full)
    kept = (masks[:, None] >> np.arange(n) & 1).astype(bool)
    dk = np.where(kept, dims, 1).prod(axis=1)
    small = dk * dk <= dim
    # each subset's parties, kept ones first, as _pure_amp_matrix orders them
    order = np.argsort(~kept, axis=1, kind="stable")
    t = state._amps.reshape(state.dims)
    rows = np.flatnonzero(small)[np.argsort(dk[small], kind="stable")]  # few shapes at a time
    # as lists, which transpose reads faster than arrays
    matrices = ((mask, t.transpose(axes).reshape(d, dim // d)) for mask, axes, d
                in zip(masks[rows].tolist(), order[rows].tolist(), dk[rows].tolist()))
    h = _stacked_bits(n, matrices, lambda m: np.square(np.linalg.svd(m, compute_uv=False)))
    h[masks[~small]] = h[full ^ masks[~small]]
    return h


def _dense_entropies(state: DensityState) -> np.ndarray:
    """The entropy of every subset of a dense state's parties, indexed by
    bitmask, each with the bits of :func:`marginal_entropy`.  A marginal is
    traced from its parent, the subset plus its lowest missing party, by
    one ``np.trace``: tracing from the whole state removes parties highest
    index first (:func:`_dense_partial_trace`), so that is its last step.
    The parents are walked depth first, one chain alive at a time, and the
    full-set entropy :meth:`DensityState.from_matrix` stored is reused."""
    full = (1 << state.n_parties) - 1

    def walk(parent, dims, mask):
        # the children of mask lack one party b below its lowest missing party
        k = len(dims)
        low = (~mask & (mask + 1)).bit_length() - 1
        t = parent.reshape(dims * 2)
        for b in range(low if k > 1 else 0):
            sub = dims[:b] + dims[b + 1:]
            d = math.prod(sub)
            marginal = np.trace(t, axis1=b, axis2=k + b).reshape(d, d)
            yield mask ^ 1 << b, marginal
            if b and k > 2:  # the child has children
                yield from walk(marginal, sub, mask ^ 1 << b)

    h = _stacked_bits(state.n_parties, walk(state._matrix, state.dims, full),
                      lambda m: np.linalg.eigvalsh(_hermitize(m)))
    stored = state._entropies.get(full)
    h[full] = vn_entropy(state) if stored is None else stored
    return h


def _stacked_bits(n: int, matrices: Iterable, spectrum: Callable) -> np.ndarray:
    """The entropy of each subset of ``n`` parties, indexed by bitmask: of
    each (subset, matrix) pair in ``matrices``, as :func:`_shannon_bits`
    values the matrix's ``spectrum``; 0.0 elsewhere.  The matrices wait in
    one stack per shape until the next would take the stacks past
    ``_STACK_BYTES``; then each stack is one LAPACK call, which copies each
    matrix into the Fortran-ordered buffer a lone one gets: the same bits."""

    def stacks():
        pending, held = {}, 0  # matrix shape -> [(subset, matrix)]
        for subset, matrix in matrices:
            if held + matrix.nbytes > _STACK_BYTES:
                yield from pending.values()
                pending, held = {}, 0
            pending.setdefault(matrix.shape, []).append((subset, matrix))
            held += matrix.nbytes
        yield from pending.values()

    subsets, spectra = [], []
    for pairs in stacks():
        ids, stack = zip(*pairs)
        subsets += ids
        spectra.append(spectrum(np.array(stack)))
    h = np.zeros(1 << n)
    if subsets:
        ends = np.cumsum(np.repeat([p.shape[1] for p in spectra], [len(p) for p in spectra]))
        h[subsets] = _spectra_bits(np.concatenate([p.ravel() for p in spectra]), ends)
    return h


#: Each representation's row, built from the module's functions when it is
#: read; pure and dense prefixes (N <= 12) are one LAPACK call each.
_RepRow = namedtuple("_RepRow", "subsets prefixes entropy distance")
_REP_ROWS = {
    REP_PURE: lambda: _RepRow(  # rho is invariant <=> the overlap has magnitude 1
        _pure_entropies, None, _pure_marginal,
        lambda s, perm: abs(1.0 - abs(np.vdot(permute_subsystems(s, perm)._amps, s._amps)))),
    REP_DENSE: lambda: _RepRow(_dense_entropies, None, _dense_marginal, _dense_distance),
    REP_CLASSICAL: lambda: _RepRow(
        _classical_entropies, _classical_prefix_entropies, _classical_marginal,
        lambda s, perm: max_entry_distance(permute_subsystems(s, perm), s)),
}


def entropy_passes(state: DensityState) -> tuple[Callable, Optional[Callable]]:
    """The all-subsets and prefix (or None) entropy passes of ``state``'s row."""
    return state._rep_row[:2]


def relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """Relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when rho places more than 1e-9 of probability
    weight outside sigma's support (spectrum entries below 1e-12 count as
    outside).
    """
    if rho.dims != sigma.dims:
        raise ArgumentError(f"dims differ: {rho.dims} vs {sigma.dims}")
    if rho.rep == REP_CLASSICAL and sigma.rep == REP_CLASSICAL:
        missing = 0.0
        cross = 0.0
        q = sigma._table
        for key, p in rho._table.items():
            if p <= EIG_CLIP:
                continue
            qk = q.get(key, 0.0)
            if qk < EIG_CLIP:
                missing += p
            else:
                cross += p * (math.log2(p) - math.log2(qk))
        if missing > SUPPORT_WEIGHT_TOL:
            return math.inf
        return float(cross)
    rm = rho.to_matrix()
    evals, vecs = np.linalg.eigh(_hermitize(sigma.to_matrix()))
    w = np.einsum("ij,jk,ki->i", vecs.conj().T, rm, vecs).real
    bad = evals < EIG_CLIP
    if w[bad].clip(min=0.0).sum() > SUPPORT_WEIGHT_TOL:
        return math.inf
    cross = -(w[~bad] * np.log2(evals[~bad])).sum()
    return float(cross - vn_entropy(rho))


# -- structural queries -------------------------------------------------


def max_entry_distance(a: DensityState, b: DensityState) -> float:
    """Largest absolute entrywise difference between the two density matrices."""
    if a.dims != b.dims:
        raise ArgumentError(f"dims differ: {a.dims} vs {b.dims}")
    if a.rep == REP_CLASSICAL and b.rep == REP_CLASSICAL:
        keys = set(a._table) | set(b._table)
        return max((abs(a._table.get(k, 0.0) - b._table.get(k, 0.0)) for k in keys),
                   default=0.0)
    return float(np.abs(a.to_matrix() - b.to_matrix()).max())


def is_permutation_invariant(state: DensityState) -> bool:
    """Whether the state is invariant under every subsystem permutation.

    Tests the generating transposition (0 1) and the full cycle, which
    together generate the symmetric group, against ``PERM_INVARIANCE_TOL``,
    and caches the verdict on the state.
    """
    if state.permutation_invariant is not None:
        return state.permutation_invariant
    n = state.n_parties
    swap_and_cycle = ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1 else ()
    verdict = len(set(state.dims)) == 1 and all(
        not state._rep_row.distance(state, perm) > PERM_INVARIANCE_TOL
        for perm in swap_and_cycle)
    object.__setattr__(state, "permutation_invariant", verdict)
    return verdict


def _dense_distance(state: DensityState, perm: tuple[int, ...]) -> float:
    t = state._matrix.reshape(state.dims * 2)  # the permuted matrix as a view of the state's
    return float(np.abs(t.transpose(perm + tuple(len(perm) + p for p in perm)) - t).max())
