"""Immutable weighted-graph model: cuts and the file format.

A Max-Cut instance is a symmetric nonnegative weight matrix with zero
diagonal.  All operations here are pure functions over immutable values, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SizeLimitError, ValidationError

__all__ = [
    "MAX_FILE_VERTICES",
    "MAX_WEIGHT_SUM",
    "WeightedGraph",
    "Cut",
    "cut_value",
    "load_graph",
    "save_graph",
    "loads_graph",
    "dumps_graph",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """Dense symmetric nonnegative weight matrix with zero diagonal.

    The unweighted *support* is the graph of strictly positive entries;
    simple-degree statistics refer to it.

    `_spectra` holds W's eigenvalues and bottom spectrum once spectral has
    solved W (see spectral.bottom_spectrum), so a file loaded twice is solved
    twice.
    """

    weights: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)  # a copy: the caller's array stays theirs
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weight matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        with np.errstate(over="ignore"):  # a sum that overflows is inf
            total = w.sum()
        if not total <= MAX_WEIGHT_SUM:
            raise ValidationError(f"weights must sum to at most {MAX_WEIGHT_SUM!r} (2^900)")
        if not np.array_equal(w, w.T):
            raise ValidationError("weight matrix must be symmetric")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if np.any(np.diagonal(w) != 0):
            raise ValidationError("diagonal must be zero (no self-loops)")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Boolean adjacency of strictly positive edges."""
        return self.weights > 0

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.support)))

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum() / 2.0)

    def edges(self) -> list[tuple[int, int, float]]:
        """Support edges as (u, v, w) with u < v, sorted."""
        iu, ju = np.nonzero(np.triu(self.support))
        return list(zip(iu.tolist(), ju.tolist(), self.weights[iu, ju].tolist()))

    def is_simple(self) -> bool:
        """True when every support edge has weight exactly 1."""
        w = self.weights
        return bool(np.all((w == 0) | (w == 1)))


@dataclass(frozen=True)
class Cut:
    """Partition of the vertices as a +/-1 sign vector.

    A cut and its negation are the same partition; the stored form is
    canonical with ``signs[0] == +1`` so equality is plain comparison.
    """

    signs: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.signs)
        if s.ndim != 1:
            raise ValidationError("cut signs must be a vector")
        if not np.all(np.abs(s) == 1):
            raise ValidationError("cut entries must be +1 or -1")
        s = s.astype(np.int8)
        if s.shape[0] > 0 and s[0] == -1:
            s = -s
        object.__setattr__(self, "signs", _frozen(s))

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    def as_float(self) -> np.ndarray:
        return self.signs.astype(np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return np.array_equal(self.signs, other.signs)

    def __hash__(self) -> int:
        return hash(self.signs.tobytes())


def cut_value(g: WeightedGraph, c: Cut) -> float:
    """Total weight of edges crossing the cut: half the sum of every vertex's
    weight to the opposite side (see _side_weights)."""
    return float(_side_weights(g, c.signs)[1].sum() / 2.0)


def _side_weights(g: WeightedGraph, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's weight to its own side and to the opposite side of the
    cut given by the +/-1 vector s.  Every cut quantity is read off these:
    the cut value, local stability, the kernel diagonal and polishing gains.

    Both come from one product of W with the two sides' indicator columns,
    so each entry is a sum of nonnegative weights: never negative, and
    exactly 0 for a vertex with no neighbour on that side (the bipartition of
    a bipartite graph has own == 0 everywhere, so its local stability is
    +inf).  The shorter own = (deg - d) / 2, with d = opposite - own from
    W @ s, subtracts two rounded sums and loses those exact zeros.

    An s of the wrong length raises DimensionError, so all of those callers do.
    """
    if s.shape[0] != g.n:
        raise DimensionError(f"cut has {s.shape[0]} entries for a {g.n}-vertex graph")
    pos = s > 0
    sides = np.empty((pos.shape[0], 2))
    sides[:, 0], sides[:, 1] = pos, ~pos
    to_side = g.weights @ sides  # columns: weight to the s > 0 side, to the s < 0 side
    own = np.where(pos, to_side[:, 0], to_side[:, 1])
    return own, np.where(pos, to_side[:, 1], to_side[:, 0])


# --- graph file format -------------------------------------------------
#
# ASCII text, bit-exact under load/save round trips (a file that is not
# ASCII is rejected like an unreadable one, exit 2):
#   lines that are blank or whose first non-blank character is '#' are
#   skipped (line breaks as str.splitlines); the first other line is the
#   header "n m"; every later line is an edge "u v w" of three whitespace-
#   separated tokens, u and v parsed by int() and w by float(), with
#   0 <= u < v < n, w positive and finite (1e400 is read as inf and
#   rejected), and no (u, v) pair twice.  The weights must sum to at most
#   MAX_WEIGHT_SUM / 2 (each edge counts twice in W.sum()).
#
# Errors (ValidationError, exit 2; SizeLimitError, exit 4) are raised in
# this order: empty file; bad header; negative counts; n > MAX_FILE_VERTICES
# (exit 4); m > n(n-1)/2; m != number of edge lines.  All of these are
# checked before the dense n x n matrix is allocated.  Then the first edge
# line that fails a check is reported, with the first failing check on
# that line: token count or int/float parse ("bad edge line"), endpoints,
# weight, duplicate of an earlier line.
#
# Edge lines are read column-wise, by numpy.loadtxt where it reads what
# int() and float() read.  On ASCII text it splits on the same whitespace
# as str.split, its int64 parse accepts only [+-]digits within range, and
# its float parse is the one float() uses (PyOS_string_to_double, minus
# float()'s underscores).  It misreads some non-ASCII letters as digits,
# so other text never reaches it, and older numpy parsed a float token
# such as '1.0' into an int field (with a DeprecationWarning), so there
# the block must first match _PLAIN_EDGE_LINES.  A block loadtxt rejects
# or may misread is read line by line with int() and float() up to the
# first line they reject.  The checks then run as masks over the columns.

MAX_FILE_VERTICES = 4096


def _check_file_vertices(n: int) -> None:
    """Raise SizeLimitError (exit 4) when an n-vertex graph exceeds the file
    limit; loading and generating both check this before allocating."""
    if n > MAX_FILE_VERTICES:
        raise SizeLimitError(f"n={n} exceeds the graph file limit of {MAX_FILE_VERTICES} vertices")


MAX_WEIGHT_SUM = 2.0**900
"""Cap on W.sum() (twice the total weight), checked by WeightedGraph.

With S = W.sum() <= 2^900 and n <= MAX_FILE_VERTICES = 2^12, every sum,
diagonal, eigenvalue and trace `solve` computes is below 2^1024.  Sums of
weights (degrees, cut and side weights, the oracle's forms, kernel
diagonals) are at most 2S.  The dual starts at d = degrees and moves d_i by
under 2n step0 / sqrt(t) at iteration t, step0 = max(1, S/n) / sqrt(n), so
after T < 2^64 iterations |d_i| < S + 4 sqrt(nT) max(1, S/n) <= 2^41 max(1, S).
Then |lambda| of W + diag(d) and the shift -lambda_min are below
2^42 max(1, S), n * shift is below 2^54 max(1, S), and the dual's trace and
gap are below 2^56 max(1, S) <= 2^956.
"""

_EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_PLAIN_EDGE_LINES = re.compile(r"(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]+[0-9.eE+-]+\n)*")


def _loadtxt_ints_strict() -> bool:
    """True when numpy.loadtxt rejects '1.0' for an integer field."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            np.loadtxt(["1.0"], dtype=np.int64)
    except ValueError:
        return True
    return False


_LOADTXT_INTS_STRICT = _loadtxt_ints_strict()


def _edge_columns(body: list[str], n: int, ascii_text: bool) -> np.ndarray:
    """The edge lines as (u, v, w) rows, up to the first line whose tokens
    do not parse; out-of-range endpoints may be read as -1."""
    if not body:
        return np.zeros(0, _EDGE_DTYPE)
    if ascii_text and (
        _LOADTXT_INTS_STRICT or _PLAIN_EDGE_LINES.fullmatch("\n".join(body) + "\n")
    ):
        try:
            return np.loadtxt(body, dtype=_EDGE_DTYPE, comments=None, ndmin=1)
        except ValueError:
            pass
    rows = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            break
        try:
            u, v, wt = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            break
        rows.append((u if 0 <= u < n else -1, v if 0 <= v < n else -1, wt))
    return np.array(rows, dtype=_EDGE_DTYPE)


def loads_graph(text: str) -> WeightedGraph:
    lines = list(filter(str.strip, text.splitlines()))
    if "#" in text:
        lines = [ln for ln in lines if not ln.lstrip().startswith("#")]
    if not lines:
        raise ValidationError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValidationError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValidationError(f"bad header line: {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ValidationError("negative counts in header")
    _check_file_vertices(n)
    if m > n * (n - 1) // 2:
        raise ValidationError(f"m={m} exceeds the {n * (n - 1) // 2} vertex pairs of n={n}")
    body = lines[1:]
    if len(body) != m:
        raise ValidationError(f"expected {m} edge lines, found {len(body)}")

    cols = _edge_columns(body, n, text.isascii())
    u, v, wt = cols["u"], cols["v"], cols["w"]
    bad_ends = ~((0 <= u) & (u < v) & (v < n))
    bad = np.flatnonzero(bad_ends | ~((wt > 0) & np.isfinite(wt)))
    first = int(bad[0]) if bad.size else len(cols)
    # The lines before `first` are valid edges; fewer nonzero entries than
    # lines means one of them repeats an earlier pair.
    w = np.zeros((n, n))
    w[u[:first], v[:first]] = wt[:first]
    if np.count_nonzero(w) < first:
        seen = set()
        for pair in zip(u[:first].tolist(), v[:first].tolist()):
            if pair in seen:
                raise ValidationError(f"duplicate edge {pair}")
            seen.add(pair)
    if first < len(cols):
        if bad_ends[first]:
            raise ValidationError(
                f"edge endpoints must satisfy 0 <= u < v < n: {body[first]!r}"
            )
        raise ValidationError(f"edge weight must be a positive decimal: {body[first]!r}")
    if len(cols) < m:
        raise ValidationError(f"bad edge line: {body[len(cols)]!r}")
    w[v, u] = wt
    return WeightedGraph(w)


def dumps_graph(g: WeightedGraph) -> str:
    """Canonical text form: header then edges sorted by (u, v)."""
    edges = g.edges()
    return f"{g.n} {len(edges)}\n" + "".join(f"{u} {v} {wt!r}\n" for u, v, wt in edges)


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="ascii") as fh:
        return loads_graph(fh.read())


def save_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_graph(g))
