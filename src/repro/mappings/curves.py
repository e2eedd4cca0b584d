"""Vectorised space-filling-curve codes: Morton (Z-order), Hilbert, Gray.

Two kinds of encoder return int64 codes.  The per-coordinate encoders
(``morton_encode``, ``gray_rank``, ``hilbert_encode``) take an
``(n_cells, n_dims)`` int64 coordinate array and work one bit plane at a
time over every row.  The box encoders (``morton_encode_box``,
``gray_rank_box``, ``hilbert_encode_box``) take a half-open box
``[lo, hi)`` and return the code of each of its cells in Dim0-fastest
order (the order of :func:`repro.mappings.base.enumerate_box`), equal bit
for bit to the per-coordinate encoder on that enumeration.  Morton ORs
per-axis bit-spread vectors by broadcasting and Gray XORs their inverse
Gray codes, so neither builds a coordinate matrix.  Hilbert walks a 2-
to 4-D box's block grid coarse to fine with one table lookup per block
and level (:func:`_hilbert_steps`); a wider box is enumerated and
encoded cell by cell.  The curve mappers build their rank
tables from the box encoders; the per-coordinate encoders are the
independent oracle the tests check those tables against.

Conventions
-----------
* ``bits`` is the per-dimension bit width; ``n_dims * bits`` must fit in 62
  bits (int64 with headroom).
* For Morton and Gray, dimension 0 occupies the *least-significant* bit of
  each interleaved group, so walking the curve toggles Dim0 first — the
  same "Dim0 fastest" convention as the Naive row-major layout.
* The Hilbert code uses Skilling's transpose algorithm (J. Skilling,
  "Programming the Hilbert curve", 2004), with axis 0 as the most
  significant transposed word; the box encoder tabulates its level step.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import MappingError
from repro.mappings.base import enumerate_box

__all__ = [
    "bits_for",
    "morton_encode",
    "morton_decode",
    "gray_rank",
    "gray_unrank",
    "hilbert_encode",
    "hilbert_decode",
    "morton_encode_box",
    "gray_rank_box",
    "hilbert_encode_box",
]


def bits_for(dims) -> int:
    """Smallest per-dimension bit width that covers every extent."""
    need = max(int(s - 1).bit_length() for s in dims)
    return max(need, 1)


def _check_width(n_dims: int, bits: int) -> None:
    if n_dims * bits > 62:
        raise MappingError(
            f"{n_dims} dims x {bits} bits exceeds the 62-bit code budget"
        )
    if bits < 1:
        raise MappingError("bits must be >= 1")


def _as_coords(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise MappingError("coords must be an (n_cells, n_dims) array")
    if arr.size and arr.min() < 0:
        raise MappingError("coordinates must be non-negative")
    return arr


def _as_codes(codes) -> np.ndarray:
    """Normalise decoder input the way :func:`_as_coords` does for
    encoders: scalars and 0-d arrays become length-1 vectors."""
    arr = np.asarray(codes, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise MappingError("codes must be a scalar or 1-D array")
    if arr.size and arr.min() < 0:
        raise MappingError("codes must be non-negative")
    return arr


# ---------------------------------------------------------------------
# Morton (Z-order)
# ---------------------------------------------------------------------

def morton_encode(coords, bits: int) -> np.ndarray:
    """Interleave coordinate bits into Z-order codes."""
    arr = _as_coords(coords)
    n_dims = arr.shape[1]
    _check_width(n_dims, bits)
    if arr.size and arr.max() >= (1 << bits):
        raise MappingError("coordinate exceeds bit width")
    out = np.zeros(arr.shape[0], dtype=np.int64)
    for j in range(bits):
        for i in range(n_dims):
            out |= ((arr[:, i] >> j) & 1) << (j * n_dims + i)
    return out


def morton_decode(codes, n_dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`morton_encode`."""
    _check_width(n_dims, bits)
    codes = _as_codes(codes)
    out = np.zeros((codes.shape[0], n_dims), dtype=np.int64)
    for j in range(bits):
        for i in range(n_dims):
            out[:, i] |= ((codes >> (j * n_dims + i)) & 1) << j
    return out


# ---------------------------------------------------------------------
# Gray-coded curve (Faloutsos 1986)
# ---------------------------------------------------------------------

def _inverse_gray(codes: np.ndarray) -> np.ndarray:
    """Inverse binary-reflected Gray code (prefix-XOR fold)."""
    out = codes.copy()
    shift = 1
    while shift < 64:
        out ^= out >> shift
        shift <<= 1
    return out


def _gray(codes: np.ndarray) -> np.ndarray:
    return codes ^ (codes >> 1)


def gray_rank(coords, bits: int) -> np.ndarray:
    """Position of a cell along the Gray-coded curve.

    The cell whose interleaved coordinate bits equal ``gray(r)`` is the
    r-th cell of the curve, so the rank is the inverse Gray code of the
    Morton interleave.
    """
    return _inverse_gray(morton_encode(coords, bits))


def gray_unrank(ranks, n_dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`gray_rank`."""
    ranks = _as_codes(ranks)
    return morton_decode(_gray(ranks), n_dims, bits)


# ---------------------------------------------------------------------
# Hilbert (Skilling's transpose algorithm)
# ---------------------------------------------------------------------

def _axes_to_transpose(x: list[np.ndarray], bits: int) -> list[np.ndarray]:
    """In-place Skilling forward transform (axes -> transposed Hilbert)."""
    n = len(x)
    m = 1 << (bits - 1)
    # Inverse undo
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            cond = (x[i] & q) != 0
            if i == 0:
                x[0] = np.where(cond, x[0] ^ p, x[0])
            else:
                t = np.where(cond, 0, (x[0] ^ x[i]) & p)
                x[0] = np.where(cond, x[0] ^ p, x[0] ^ t)
                x[i] = x[i] ^ t
        q >>= 1
    # Gray encode
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = np.zeros_like(x[0])
    q = m
    while q > 1:
        t = np.where((x[n - 1] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list[np.ndarray], bits: int) -> list[np.ndarray]:
    """In-place Skilling inverse transform (transposed Hilbert -> axes)."""
    n = len(x)
    m = 2 << (bits - 1)
    # Gray decode
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work
    q = 2
    while q != m:
        p = q - 1
        for i in range(n - 1, -1, -1):
            cond = (x[i] & q) != 0
            if i == 0:
                x[0] = np.where(cond, x[0] ^ p, x[0])
            else:
                t = np.where(cond, 0, (x[0] ^ x[i]) & p)
                x[0] = np.where(cond, x[0] ^ p, x[0] ^ t)
                x[i] = x[i] ^ t
        q <<= 1
    return x


def _interleave_transposed(x: list[np.ndarray], bits: int) -> np.ndarray:
    """Pack transposed words into a single Hilbert integer (x[0] MSB)."""
    n = len(x)
    out = np.zeros_like(x[0])
    for bit in range(bits - 1, -1, -1):
        for i in range(n):
            out = (out << 1) | ((x[i] >> bit) & 1)
    return out


def _deinterleave_transposed(
    codes: np.ndarray, n_dims: int, bits: int
) -> list[np.ndarray]:
    x = [np.zeros_like(codes) for _ in range(n_dims)]
    pos = n_dims * bits
    for bit in range(bits - 1, -1, -1):
        for i in range(n_dims):
            pos -= 1
            x[i] |= ((codes >> pos) & 1) << bit
    return x


def hilbert_encode(coords, bits: int) -> np.ndarray:
    """Hilbert-curve index of each coordinate row."""
    arr = _as_coords(coords)
    n_dims = arr.shape[1]
    _check_width(n_dims, bits)
    if arr.size and arr.max() >= (1 << bits):
        raise MappingError("coordinate exceeds bit width")
    if n_dims == 1:
        return arr[:, 0].copy()
    x = [arr[:, i].copy() for i in range(n_dims)]
    x = _axes_to_transpose(x, bits)
    return _interleave_transposed(x, bits)


def hilbert_decode(codes, n_dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`hilbert_encode`."""
    _check_width(n_dims, bits)
    codes = _as_codes(codes)
    if n_dims == 1:
        return codes[:, np.newaxis].copy()
    x = _deinterleave_transposed(codes, n_dims, bits)
    x = _transpose_to_axes(x, bits)
    return np.stack(x, axis=1)


# ---------------------------------------------------------------------
# Box encoders: every cell of a half-open box, from per-axis vectors
# ---------------------------------------------------------------------

def _box_bounds(lo, hi, bits: int) -> list[tuple[int, int]] | None:
    """The box's ``(lo, hi)`` per axis, checked as the per-coordinate
    encoders check the rows of its enumeration; None when it is empty."""
    lo, hi = tuple(lo), tuple(hi)
    if not lo or len(lo) != len(hi):
        raise MappingError("lo and hi must name the same dims, at least one")
    bounds = [(int(a), int(b)) for a, b in zip(lo, hi)]
    empty = any(b <= a for a, b in bounds)
    if not empty and min(a for a, _ in bounds) < 0:
        raise MappingError("coordinates must be non-negative")
    _check_width(len(bounds), bits)
    if empty:
        return None
    if max(b for _, b in bounds) > (1 << bits):
        raise MappingError("coordinate exceeds bit width")
    return bounds


def _along(vec: np.ndarray, d: int) -> np.ndarray:
    """Axis d's vector laid along array axis ``-1 - d``: broadcasting
    such vectors together ravels with dimension 0 varying fastest."""
    return vec.reshape((-1,) + (1,) * d)


def _fold(op, vectors: list[np.ndarray]) -> np.ndarray:
    """``op`` of every axis's vector over the box, Dim0-fastest; the
    outer axes combine first, so only the last step is box-sized."""
    out = _along(vectors[-1], len(vectors) - 1)
    for d in range(len(vectors) - 2, -1, -1):
        out = op(out, _along(vectors[d], d))
    return out.ravel()


def _spread(coord: np.ndarray, d: int, n_dims: int, bits: int) -> np.ndarray:
    """Axis d's share of the Morton code: bit j of each coordinate moves
    to bit ``j * n_dims + d``."""
    out = np.zeros_like(coord)
    for j in range(bits):
        out |= ((coord >> j) & 1) << (j * n_dims + d)
    return out


def _spreads(bounds, bits: int) -> list[np.ndarray]:
    n = len(bounds)
    return [_spread(np.arange(a, b, dtype=np.int64), d, n, bits)
            for d, (a, b) in enumerate(bounds)]


def morton_encode_box(lo, hi, bits: int) -> np.ndarray:
    """:func:`morton_encode` of every cell of ``[lo, hi)``: the axes'
    bits are disjoint, so the code is an OR of per-axis vectors."""
    bounds = _box_bounds(lo, hi, bits)
    if bounds is None:
        return np.empty(0, dtype=np.int64)
    return _fold(np.bitwise_or, _spreads(bounds, bits))


def gray_rank_box(lo, hi, bits: int) -> np.ndarray:
    """:func:`gray_rank` of every cell of ``[lo, hi)``.

    The inverse Gray code is linear over XOR, and the axes' Morton bits
    are disjoint (so their OR is their XOR): the rank is the XOR of each
    axis's inverse-Gray-coded share.
    """
    bounds = _box_bounds(lo, hi, bits)
    if bounds is None:
        return np.empty(0, dtype=np.int64)
    return _fold(np.bitwise_xor,
                 [_inverse_gray(v) for v in _spreads(bounds, bits)])


#: widest box with a tabulated Hilbert level step, enough for the
#: paper's 3- and 4-D grids (48 states x 8 patterns in 3-D, 384 x 16 in
#: 4-D); wider boxes are encoded cell by cell
_TABLE_DIMS = 4


def _state_keys(perm, flip, parity, n: int):
    """Hilbert state key: the parity at bit 0, flip j at bit 1 + j, perm
    j in the 4 bits from ``n + 1 + 4 j`` (scalars or arrays)."""
    key = parity
    for j in range(n):
        key = key | (flip[j] << (1 + j)) | (perm[j] << (n + 1 + 4 * j))
    return key


def _level_step(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Skilling's forward transform at one bit level, for every state
    in ``keys`` and every child bit pattern: ``(next keys, digits)``,
    each of shape ``(len(keys), 2**n)``."""
    keys = keys[:, None]
    parity = keys & 1
    flip = [(keys >> (1 + j)) & 1 for j in range(n)]
    perm = [(keys >> (n + 1 + 4 * j)) & 15 for j in range(n)]
    c = np.arange(1 << n, dtype=np.int64)
    y = [((c >> perm[j]) & 1) ^ flip[j] for j in range(n)]
    # the digit: Gray prefix XOR of the words, XOR the parity above
    acc = np.broadcast_to(parity, y[0].shape)
    digit = np.zeros_like(y[0])
    for j in range(n):
        acc = acc ^ y[j]
        digit = (digit << 1) | acc
    # the level step on the lower bits: word i's bit set inverts word 0,
    # clear exchanges words 0 and i
    p = [np.broadcast_to(v, y[0].shape) for v in perm]
    f = [np.broadcast_to(v, y[0].shape) for v in flip]
    f[0] = f[0] ^ y[0]
    for i in range(1, n):
        keep = y[i] == 1
        p[0], p[i] = np.where(keep, p[0], p[i]), np.where(keep, p[i], p[0])
        f[0], f[i] = (np.where(keep, f[0] ^ 1, f[i]),
                      np.where(keep, f[i], f[0]))
    return _state_keys(p, f, acc, n), digit


@functools.lru_cache(maxsize=None)
def _hilbert_steps(n: int) -> np.ndarray:
    """Skilling's forward transform tabulated one bit level at a time,
    for ``n`` dims (a constant of the curve, built once per process).

    Walked from the most significant bit down, the transform's "inverse
    undo" applies a signed axis permutation to every bit below the
    level: transposed word j holds source axis ``perm[j]``, inverted if
    ``flip[j]``.  Its Gray pass makes level q's n-bit digit the prefix
    XOR of the words' bits there, XOR the parity of every bit at the
    levels above.  A *state* is ``(perm, flip, parity)``; the states are
    those reachable from the identity (state 0, which opens the top
    level), found breadth first.  Row ``s`` holds, for each child bit
    pattern ``c`` (bit d = the cell's bit on axis d at this level),
    ``next state << n | digit``: the next state's row offset plus the
    digit.
    """
    keys = [_state_keys(range(n), [0] * n, 0, n)]
    while True:
        following, digits = _level_step(np.asarray(keys, dtype=np.int64), n)
        new = set(following.ravel().tolist()).difference(keys)
        if not new:
            break
        keys += sorted(new)
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys)
    index = order[np.searchsorted(keys, following, sorter=order)]
    table = ((index << n) | digits).ravel()
    table.flags.writeable = False
    return table


def hilbert_encode_box(lo, hi, bits: int) -> np.ndarray:
    """:func:`hilbert_encode` of every cell of ``[lo, hi)``.

    One coarse-to-fine pass over the box's block grid: at level q a
    block is a ``2**q``-cell cube, and its state and code prefix come
    from its parent block's through one lookup in :func:`_hilbert_steps`
    per block, indexed by the parent's state and the block's per-axis
    bit pattern.  The last level's blocks are the cells.  Boxes of more
    than ``_TABLE_DIMS`` dims are enumerated and encoded cell by cell.
    """
    bounds = _box_bounds(lo, hi, bits)
    if bounds is None:
        return np.empty(0, dtype=np.int64)
    n = len(bounds)
    if n == 1:
        return np.arange(*bounds[0], dtype=np.int64)
    if n > _TABLE_DIMS:
        return hilbert_encode(enumerate_box(lo, hi), bits)
    table = _hilbert_steps(n)
    digit = (1 << n) - 1
    # one block above the top level, holding the whole box, in state 0
    row = np.zeros(1, dtype=np.int64)
    code = np.zeros(1, dtype=np.int64)
    for q in range(bits - 1, -1, -1):
        parent, pattern, stride = [], [], 1
        for d, (a, b) in enumerate(bounds):
            v = np.arange(a >> q, ((b - 1) >> q) + 1, dtype=np.int64)
            up = v >> 1
            parent.append((up - up[0]) * stride)
            pattern.append((v & 1) << d)
            stride *= int(up[-1] - up[0]) + 1
        flat = _fold(np.add, parent)
        packed = table.take(row.take(flat) + _fold(np.add, pattern))
        code = (code.take(flat) << n) | (packed & digit)
        row = packed & ~digit
    return code
