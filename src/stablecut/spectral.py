"""Spectral partitioning, diagonal shifts, PSD certificates, and the
sufficient-condition checkers for when the spectral route provably solves
Max-Cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ValidationError
from .graph import Cut, WeightedGraph, _side_weights

__all__ = [
    "PSD_REL_TOL",
    "LOCAL_GAMMA_CAP",
    "SpectralCertificate",
    "ConditionVerdict",
    "eigendecompose",
    "eigen_smallest_two",
    "bottom_spectrum",
    "eigenvalues_of_w",
    "spectral_partition",
    "build_diagonal_from_cut",
    "psd_sufficient_margin",
    "family_condition_checks",
    "build_certificate",
]

PSD_REL_TOL = 1e-9
# Infinite local stability saturates (gamma-1)/(gamma+1) at 1; the cap keeps
# the arithmetic finite and is numerically inert.
LOCAL_GAMMA_CAP = 1e12


def _as_sym(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    if not (m == m.T).all():  # exactly symmetric needs no scale; a NaN never is
        scale = float(np.abs(m).max())
        if not math.isfinite(scale):
            raise ValidationError("matrix must be finite")
        if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, scale):
            raise ValidationError("matrix must be symmetric within 1e-12")
    return m


def eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix, ascending, with unit eigenvectors as
    columns: the package's one eigensolve (dense LAPACK; each vector has
    residual |Mu - lam*u|_inf <= 1e-9 * |M|_inf).  A non-finite entry raises
    ValidationError: an asymmetric one in _as_sym, a symmetric infinity
    through the failed solve or the non-finite extreme eigenvalues it leads to."""
    m = _as_sym(m)
    if m.shape[0] == 0:
        raise ValidationError("matrix must be nonempty")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"matrix must be finite ({exc})") from None
    if not (math.isfinite(vals[0]) and math.isfinite(vals[-1])):  # O(1): the dual solves thousands of times
        raise ValidationError("matrix must be finite, with finite eigenvalues")
    return vals, vecs


def _bottom_two(vals: np.ndarray, vecs: np.ndarray) -> tuple[float, np.ndarray, float]:
    return float(vals[0]), vecs[:, 0].copy(), float(vals[min(1, len(vals) - 1)])


def eigen_smallest_two(m: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Two smallest eigenvalues of a symmetric matrix plus the bottom
    eigenvector, read off eigendecompose(m); a 1x1 matrix repeats its one
    eigenvalue."""
    return _bottom_two(*eigendecompose(m))


def _shifted(g: WeightedGraph, d: np.ndarray) -> np.ndarray:
    """W + diag(d) as a new matrix."""
    m = g.weights.copy()
    m.reshape(-1)[:: g.n + 1] = d
    return m


def _spectrum_of_w(g: WeightedGraph) -> tuple[np.ndarray, tuple[float, np.ndarray, float]]:
    """W's eigenvalues and bottom spectrum from one eigendecompose(W), stored
    on the graph; both are shared and therefore read-only.  Nothing is
    replaced, so threads sharing a graph at worst solve W twice and get the
    same bits."""
    spectrum = g._spectra.get("W")
    if spectrum is None:
        vals, vecs = eigendecompose(g.weights)
        bottom = _bottom_two(vals, vecs)
        vals.setflags(write=False)
        bottom[1].setflags(write=False)
        spectrum = g._spectra["W"] = (vals, bottom)
    return spectrum


def bottom_spectrum(g: WeightedGraph) -> tuple[float, np.ndarray, float]:
    """eigen_smallest_two(W), solved once per graph (see _spectrum_of_w)."""
    return _spectrum_of_w(g)[1]


def eigenvalues_of_w(g: WeightedGraph) -> np.ndarray:
    """Every eigenvalue of W, ascending, from the same solve as bottom_spectrum."""
    return _spectrum_of_w(g)[0]


def _positive(u: np.ndarray) -> np.ndarray:
    """The side of each vertex in a sign rounding: entries > 0 against <= 0."""
    return u > 0


def _sign_cut(u: np.ndarray) -> Cut:
    """Entries > 0 go to one side, entries <= 0 to the other."""
    return Cut(np.where(_positive(u), 1, -1).astype(np.int8))


def _rounding_key(u: np.ndarray) -> bytes:
    """_sign_cut(u)'s sides as bytes, True on vertex 0's: equal exactly when the cuts are."""
    side = _positive(u)
    return (side == side[0]).tobytes()


def spectral_partition(g: WeightedGraph) -> Cut:
    """Cut induced by the sign pattern (see _sign_cut) of the eigenvector of
    the least eigenvalue of W (see bottom_spectrum)."""
    return _sign_cut(bottom_spectrum(g)[1])


def build_diagonal_from_cut(g: WeightedGraph, c: Cut) -> np.ndarray:
    """Diagonal d with d_i = w(i, opposite side) - w(i, own side).

    Chosen so the cut's sign vector lies in the kernel of W + diag(d)
    exactly; trace(d) = 2 * (cut weight - uncut weight).
    """
    own, opposite = _side_weights(g, c.signs)
    return opposite - own


def _capped(gamma: float) -> float:
    return min(gamma, LOCAL_GAMMA_CAP)


def psd_sufficient_margin(
    g: WeightedGraph, gamma_local: float, degrees: np.ndarray
) -> tuple[bool, float]:
    """Margin 2*delta~*(gamma-1)/(gamma+1) + lam_n + lam_{n-1} for a cut c.

    gamma_local is oracle.local_stability_gamma(g, c), and gamma is it capped
    when infinite; delta~ is the least of the weighted degrees `degrees`,
    W's row sums; the eigenvalues are those of W itself.  A positive margin
    guarantees W + diag(build_diagonal_from_cut(g, c)) is positive semidefinite.
    """
    gamma = _capped(gamma_local)
    lam_n, _, lam_n1 = bottom_spectrum(g)
    margin = 2.0 * float(degrees.min()) * (gamma - 1.0) / (gamma + 1.0) + lam_n + lam_n1
    return margin > 0, float(margin)


@dataclass(frozen=True)
class ConditionVerdict:
    """One sufficient-condition check with its computed sides."""

    name: str
    applicable: bool
    holds: bool | None
    lhs: float | None = None
    rhs: float | None = None
    detail: dict = field(default_factory=dict)


def family_condition_checks(
    g: WeightedGraph,
    gamma_local: float,
    degrees: np.ndarray,
    profile: oracle.StabilityReport | None = None,
) -> list[ConditionVerdict]:
    """Evaluate the graph-family conditions under which the shifted spectral
    route is guaranteed: equal weighted degrees, regular expanders, Cheeger
    expansion, and cut distinctness.

    gamma_local is oracle.local_stability_gamma(g, c) for the candidate cut
    c, and gamma is it capped when infinite; `degrees` are W's row sums.
    W's eigenvalues all come from bottom_spectrum's solve.  Structural
    preconditions that fail mark the check not-applicable rather than false.
    The Cheeger and distinctness checks need the exact stability `profile`
    (for k*) and sweep for the Cheeger constant; without one neither applies.
    """
    verdicts: list[ConditionVerdict] = []
    gamma = _capped(gamma_local)
    lam_n, _, lam_n1 = bottom_spectrum(g)

    equal_w = g.n > 0 and float(np.ptp(degrees)) <= 1e-9 * max(1.0, float(np.abs(degrees).max()))
    if equal_w and lam_n < 0:
        lhs = lam_n1 / lam_n
        rhs = (gamma - 3.0) / (gamma + 1.0)
        verdicts.append(
            ConditionVerdict(
                "equal_degree_spectral_ratio", True, bool(lhs < rhs), float(lhs), float(rhs),
                {"gamma_local": gamma},
            )
        )
    else:
        verdicts.append(ConditionVerdict("equal_degree_spectral_ratio", False, None))

    regular = g.is_simple() and equal_w and g.n > 1
    d = float(degrees[0]) if regular else 0.0
    if regular:
        lam2 = float(eigenvalues_of_w(g)[-2])
        rhs = (5.0 * d + lam2) / (d - lam2) if d - lam2 > 0 else math.inf
        verdicts.append(
            ConditionVerdict(
                "regular_expander", True, bool(gamma > rhs), gamma, float(rhs),
                {"degree": d, "lambda2": lam2},
            )
        )
    else:
        verdicts.append(ConditionVerdict("regular_expander", False, None))

    def threshold_from(x: float) -> float:
        frac = min(max(x / d, 0.0), 1.0)
        s = math.sqrt(max(0.0, 1.0 - frac * frac))
        if 1.0 - s == 0.0:
            return math.inf
        return (5.0 + s) / (1.0 - s)

    rep = profile if regular else None
    h = None if rep is None else oracle.cheeger_constant(g)
    if h is not None and math.isfinite(h) and h > 0:
        rhs = threshold_from(h)
        verdicts.append(
            ConditionVerdict(
                "cheeger_expansion", True, bool(gamma > rhs), gamma, rhs,
                {"cheeger": h, "degree": d},
            )
        )
    else:
        verdicts.append(ConditionVerdict("cheeger_expansion", False, None))

    if rep is not None and rep.unique and math.isfinite(rep.k_star) and rep.k_star > 0:
        rhs = threshold_from(rep.k_star)
        verdicts.append(
            ConditionVerdict(
                "distinctness", True, bool(gamma > rhs), gamma, rhs,
                {"k_star": rep.k_star, "cheeger": h, "h_ge_k": bool(h >= rep.k_star)},
            )
        )
    else:
        verdicts.append(ConditionVerdict("distinctness", False, None))

    return verdicts


@dataclass(frozen=True)
class SpectralCertificate:
    """The kernel certificate of a candidate cut c: its kernel diagonal d
    (``diag_shift``, so c's sign vector lies in the kernel of W + diag(d)),
    the two least eigenvalues of W + diag(d), and ``psd``, which means
    lambda_n >= -PSD_REL_TOL * max(1, |W + diag(d)|_inf)."""

    lambda_n: float
    lambda_n_minus_1: float
    diag_shift: np.ndarray
    psd: bool


def build_certificate(
    g: WeightedGraph, c: Cut, d: np.ndarray | None = None
) -> SpectralCertificate:
    """Certificate for c: kernel diagonal, bottom spectrum, PSD flag.
    d is c's kernel diagonal (build_diagonal_from_cut) if already computed."""
    if d is None:
        d = build_diagonal_from_cut(g, c)
    m = _shifted(g, d)
    lam_n, _, lam_n1 = eigen_smallest_two(m)
    return SpectralCertificate(
        lambda_n=lam_n,
        lambda_n_minus_1=lam_n1,
        diag_shift=d,
        psd=lam_n >= -PSD_REL_TOL * max(1.0, float(np.linalg.norm(m, np.inf))),
    )

