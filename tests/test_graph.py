import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecut import (
    Cut,
    DimensionError,
    SizeLimitError,
    ValidationError,
    WeightedGraph,
    build_certificate,
    build_diagonal_from_cut,
    cut_value,
    dumps_graph,
    local_stability_gamma,
    loads_graph,
    polish_cut,
)
from stablecut import graph
from stablecut.graph import MAX_FILE_VERTICES, _side_weights

from conftest import random_weighted


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValidationError):
        WeightedGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValidationError):
        WeightedGraph(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_validation_rejects_non_finite_weights(bad):
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        WeightedGraph(w)


def test_graph_is_immutable(k2):
    with pytest.raises(ValueError):
        k2.weights[0, 1] = 5.0


def test_cut_canonical_form():
    c = Cut(np.array([-1, 1, -1]))
    assert c.signs.tolist() == [1, -1, 1]
    assert Cut(np.array([1, -1, 1])) == c
    with pytest.raises(ValidationError):
        Cut(np.array([1, 0, -1]))


def test_cut_value_examples(k2, triangle):
    assert cut_value(k2, Cut(np.array([1, -1]))) == 1.0
    assert cut_value(k2, Cut(np.array([1, 1]))) == 0.0
    assert cut_value(triangle, Cut(np.array([-1, 1, -1]))) == 5.0


def test_cut_value_dimension_error(k2):
    with pytest.raises(DimensionError):
        cut_value(k2, Cut(np.array([1, -1, 1])))


@pytest.mark.parametrize(
    "f", [cut_value, local_stability_gamma, build_diagonal_from_cut, build_certificate, polish_cut]
)
@pytest.mark.parametrize("signs", [[1, -1], [1, -1, 1, -1, 1]])
def test_wrong_length_cut_raises_dimension_error(c4, f, signs):
    with pytest.raises(DimensionError, match=f"cut has {len(signs)} entries for a 4-vertex graph"):
        f(c4, Cut(np.array(signs)))


def test_apply_perturbation(k2, triangle):
    doubled = WeightedGraph(k2.weights * 2.0)
    assert doubled.weights[0, 1] == 2.0
    assert cut_value(doubled, Cut(np.array([1, -1]))) == 2.0
    f = np.ones((3, 3))
    f[0, 2] = f[2, 0] = 2.0
    perturbed = WeightedGraph(triangle.weights * f)
    assert perturbed.weights[0, 2] == 2.0
    # both {1} and {2} now reach value 5
    assert cut_value(perturbed, Cut(np.array([-1, 1, -1]))) == 5.0
    assert cut_value(perturbed, Cut(np.array([-1, -1, 1]))) == 5.0


@st.composite
def graph_and_cut(draw, bipartite=st.just(False)):
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = random_weighted(n, seed)
    signs = np.array([draw(st.sampled_from([-1, 1])) for _ in range(n)], dtype=np.int8)
    if draw(bipartite):  # keep only the edges the cut crosses
        g = WeightedGraph(g.weights * (signs[:, None] != signs[None, :]))
    return g, Cut(signs)


@settings(max_examples=60, deadline=None)
@given(graph_and_cut())
def test_cut_negation_symmetry(gc):
    g, c = gc
    assert cut_value(g, c) == cut_value(g, Cut(-c.signs))


@settings(max_examples=100, deadline=None)
@given(graph_and_cut(bipartite=st.booleans()))
def test_cut_arithmetic_matches_reference(gc):
    g, c = gc
    w, s = g.weights, c.as_float()
    own, opposite = _side_weights(g, s)
    # cut_value is half the opposite-side weights, summed as numpy sums them
    assert cut_value(g, c) == float(opposite.sum() / 2.0)
    assert cut_value(g, c) == pytest.approx((w.sum() - s @ w @ s) / 4.0, rel=1e-12, abs=1e-12)
    assert (own >= 0).all() and (opposite >= 0).all()
    for i in range(g.n):
        same = s == s[i]
        assert own[i] == pytest.approx(math.fsum(w[i, same]), rel=1e-12, abs=0)
        assert opposite[i] == pytest.approx(math.fsum(w[i, ~same]), rel=1e-12, abs=0)
    if not (w * (s[:, None] == s[None, :])).any():  # c is a bipartition of g
        assert own.tolist() == [0.0] * g.n
        assert local_stability_gamma(g, c) == math.inf


@settings(max_examples=60, deadline=None)
@given(graph_and_cut(), st.integers(min_value=0, max_value=2**31))
def test_perturbation_monotone(gc, seed):
    g, c = gc
    rng = np.random.Generator(np.random.Philox(seed))
    up = np.triu(1.0 + rng.random((g.n, g.n)), 1)
    f = up + up.T
    perturbed = WeightedGraph(g.weights * f)
    assert cut_value(perturbed, c) >= cut_value(g, c) - 1e-12


def test_file_roundtrip_is_byte_exact(triangle):
    text = dumps_graph(triangle)
    assert text == "3 3\n0 1 2.0\n0 2 1.0\n1 2 3.0\n"
    assert dumps_graph(loads_graph(text)) == text


def test_file_roundtrip_random():
    for seed in range(5):
        g = random_weighted(7, seed)
        text = dumps_graph(g)
        assert dumps_graph(loads_graph(text)) == text


def test_load_accepts_comments_and_rejects_junk():
    g = loads_graph("# a comment\n2 1\n0 1 1.5\n")
    assert g.weights[0, 1] == 1.5
    with pytest.raises(ValidationError):
        loads_graph("2 1\n1 0 1.0\n")  # u >= v
    with pytest.raises(ValidationError):
        loads_graph("3 2\n0 1 1.0\n0 1 2.0\n")  # duplicate
    with pytest.raises(ValidationError, match="vertex pairs"):
        loads_graph("2 2\n0 1 1.0\n0 1 2.0\n")  # more edges than vertex pairs
    with pytest.raises(ValidationError):
        loads_graph("2 1\n0 1 0.0\n")  # nonpositive weight
    with pytest.raises(ValidationError):
        loads_graph("2 1\n0 1 1.0\n0 1 1.0\n")  # count mismatch
    with pytest.raises(ValidationError):
        loads_graph("")


# --- reference parser: one Python int/float per token -------------------
#
# The original line-by-line parser and writer, kept verbatim as the ground
# truth for the column-wise ones: valid files must give bit-identical
# weights, malformed files the same exception and message.


def _reference_loads_graph(text: str) -> WeightedGraph:
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
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
    if n > MAX_FILE_VERTICES:
        raise SizeLimitError(f"n={n} exceeds the graph file limit of {MAX_FILE_VERTICES} vertices")
    if m > n * (n - 1) // 2:
        raise ValidationError(f"m={m} exceeds the {n * (n - 1) // 2} vertex pairs of n={n}")
    if len(lines) - 1 != m:
        raise ValidationError(f"expected {m} edge lines, found {len(lines) - 1}")
    w = np.zeros((n, n))
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValidationError(f"bad edge line: {ln!r}")
        try:
            u, v, wt = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad edge line: {ln!r}") from exc
        if not (0 <= u < v < n):
            raise ValidationError(f"edge endpoints must satisfy 0 <= u < v < n: {ln!r}")
        if wt <= 0 or not np.isfinite(wt):
            raise ValidationError(f"edge weight must be a positive decimal: {ln!r}")
        if w[u, v] != 0:
            raise ValidationError(f"duplicate edge ({u}, {v})")
        w[u, v] = wt
        w[v, u] = wt
    return WeightedGraph(w)


def _reference_dumps_graph(g: WeightedGraph) -> str:
    buf = io.StringIO()
    edges = g.edges()
    buf.write(f"{g.n} {len(edges)}\n")
    for u, v, wt in edges:
        buf.write(f"{u} {v} {wt!r}\n")
    return buf.getvalue()


def _outcome(parse, text: str):
    try:
        return "ok", parse(text).weights.tobytes()
    except Exception as exc:  # compared by class and message
        return type(exc).__name__, str(exc)


_WEIGHT_FORMATS = [repr, "{:.3f}".format, "{:e}".format, "{:.17g}".format, "{:G}".format]


@st.composite
def edge_files(draw):
    """(n, edge lines, a seeded random for _render): every edge is valid;
    order, weight formats, tabs and spacing vary."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weights = st.one_of(
        st.floats(min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=9).map(float),
        st.integers(min_value=1, max_value=99).map(lambda k: k / 10),
    )
    sep = st.sampled_from([" ", "\t", "  ", " \t"])
    edges = []
    for u, v in chosen:
        wt = draw(st.sampled_from(_WEIGHT_FORMATS))(draw(weights))
        if float(wt) <= 0:  # "0.000" for a tiny weight
            continue
        a, b = draw(sep), draw(sep)
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        edges.append(f"{lead}{u}{a}{v}{b}{wt}{trail}")
    return n, draw(st.permutations(edges)), draw(st.randoms(use_true_random=False))


def _render(n: int, m: int, edges: list[str], rnd, eol: str = "\n") -> str:
    out = []
    if rnd.random() < 0.5:
        out.append("# leading comment")
    out.append(f"{n} {m}")
    for ln in edges:
        if rnd.random() < 0.1:
            out.append(rnd.choice(["", "   ", "\t", "#", "  # indented comment"]))
        out.append(ln)
    return eol.join(out) + (eol if rnd.random() < 0.9 else "")


@settings(max_examples=200, deadline=None)
@given(edge_files(), st.sampled_from(["\n", "\r\n"]))
def test_loads_matches_reference_on_valid_files(f, eol):
    n, edges, rnd = f
    text = _render(n, len(edges), edges, rnd, eol)
    expected = _outcome(_reference_loads_graph, text)
    assert expected[0] == "ok"
    assert _outcome(loads_graph, text) == expected


# Each mutation inserts one edge line: malformed ones, and valid tokens
# that only the line-by-line path reads (signs, underscores).  A count
# offset makes the header's m disagree with the lines.
_MUTATIONS = {
    "too_few_tokens": lambda u, v, n: f"{u} {v}",
    "too_many_tokens": lambda u, v, n: f"{u} {v} 1.0 2.0",
    "float_vertex": lambda u, v, n: f"{u}.0 {v} 1.0",
    "exponent_vertex": lambda u, v, n: f"{u} {v}e0 1.0",
    "word_weight": lambda u, v, n: f"{u} {v} heavy",
    "inline_comment": lambda u, v, n: f"{u} {v} 1.0 # note",
    "u_ge_v": lambda u, v, n: f"{v} {u} 1.0",
    "u_eq_v": lambda u, v, n: f"{u} {u} 1.0",
    "v_ge_n": lambda u, v, n: f"{u} {n} 1.0",
    "negative_vertex": lambda u, v, n: f"-1 {v} 1.0",
    "huge_vertex": lambda u, v, n: f"{u} 99999999999999999999 1.0",
    "zero_weight": lambda u, v, n: f"{u} {v} 0",
    "negative_weight": lambda u, v, n: f"{u} {v} -0.5",
    "inf_weight": lambda u, v, n: f"{u} {v} inf",
    "nan_weight": lambda u, v, n: f"{u} {v} nan",
    "overflow_weight": lambda u, v, n: f"{u} {v} 1e400",
    "signed_tokens": lambda u, v, n: f"+{u} +{v} +1.5",
    "underscore_tokens": lambda u, v, n: f"{u} {v} 1_0.5",
}


@settings(max_examples=300, deadline=None)
@given(
    edge_files(),
    st.lists(
        st.tuples(st.sampled_from(sorted(_MUTATIONS) + ["duplicate"]), st.integers(0, 10**6)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([-1, 0, 0, 0, 1]),
)
def test_loads_matches_reference_on_malformed_files(f, mutations, count_offset):
    n, edges, rnd = f
    edges = list(edges)
    if n < 2:
        n, edges = 2, ["0 1 1.0"]
    for name, at in mutations:
        i = at % (len(edges) + 1)
        u, v = at % (n - 1), n - 1
        if name == "duplicate":
            if not edges:
                continue
            line = edges[at % len(edges)]
        else:
            line = _MUTATIONS[name](u, v, n)
        edges.insert(i, line)
    m = max(0, len(edges) + count_offset)
    text = _render(n, m, edges, rnd)
    assert _outcome(loads_graph, text) == _outcome(_reference_loads_graph, text)


@pytest.mark.parametrize(
    "text",
    [
        "3 1\n1.0 2 0.5\n",
        "3 1\n1 2.0 0.5\n",
        "3 1\n1e0 2 0.5\n",
        "3 2\n0 1 0.5\n0 1 0.5\n",
        "3 2\n0 1 0.5\n1 2 1.5 # c\n",
        "3 2\n0 1 0.5\n0 3 1.5\n",
        "3 2\n0 2 1e400\n0 1 0.5\n",
        "3 2\n0 1 0.5\n0 1 nan\n",
        "3 3\n0 1 0.5\n0 1 0.5\n1 1 0.5\n",
        "3 2\n0 1 0.5\n",
        "Ǿ1 2 0.5\n",
        "3 1\nǾ1 2 0.5\n",
        "3 1\n１ 2 0.5\n",
        "3 1\n1 2 0.5\n",
        "3 1\n1\x1f2 0.5\n",
        "3 1\n1_0 2 0.5\n",
        "3 1\n+1 0002 .5e1\n",
    ],
)
def test_loads_matches_reference_examples(text):
    assert _outcome(loads_graph, text) == _outcome(_reference_loads_graph, text)


class _LenientLoadtxt:
    """numpy as the graph module sees it, except that loadtxt reads an int
    field through float, as numpy < 2 did (with a DeprecationWarning)."""

    def __getattr__(self, name):
        return getattr(np, name)

    def loadtxt(self, lines, dtype, **kwargs):
        return np.array([tuple(map(float, ln.split())) for ln in lines], dtype=dtype)


def test_float_vertex_rejected_when_loadtxt_reads_ints_through_float(monkeypatch):
    monkeypatch.setattr(graph, "np", _LenientLoadtxt())
    assert not graph._loadtxt_ints_strict()
    monkeypatch.setattr(graph, "_LOADTXT_INTS_STRICT", False)
    with pytest.raises(ValidationError, match="bad edge line: '1.0 2 0.5'"):
        loads_graph("3 1\n1.0 2 0.5\n")
    with pytest.raises(ValidationError, match="bad edge line: '1 2e0 0.5'"):
        loads_graph("3 2\n0 1 1.5\n1 2e0 0.5\n")
    text = dumps_graph(random_weighted(9, 3))
    assert dumps_graph(loads_graph(text)) == text


def test_installed_loadtxt_reads_ints_strictly():
    assert graph._LOADTXT_INTS_STRICT == graph._loadtxt_ints_strict()
    if graph._LOADTXT_INTS_STRICT:
        with pytest.raises(ValueError):
            np.loadtxt(["1.0 2 0.5"], dtype=graph._EDGE_DTYPE, comments=None, ndmin=1)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loads_peak_memory_within_reference():
    text = dumps_graph(random_weighted(200, 5, p=1.0))
    assert text.count("\n") == 1 + 200 * 199 // 2
    ref = _peak_bytes(lambda: _reference_loads_graph(text))
    new = _peak_bytes(lambda: loads_graph(text))
    assert new <= 1.5 * ref


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_dumps_matches_reference(n, seed, p):
    g = random_weighted(n, seed, p)
    assert dumps_graph(g) == _reference_dumps_graph(g)
